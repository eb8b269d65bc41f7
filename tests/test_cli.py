from __future__ import annotations

import codecs
import csv
import hashlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lbrank
from lbrank import cli, linear, nested
from lbrank.cli import EXIT_DATA, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from lbrank.core import (
    QueryInstance,
    SimplexWeights,
    gain_from_spec,
    ranking_from_scores,
    sigmoid_gain,
    weighted_average_scores,
)
from lbrank.io import (
    Dataset,
    parse_letor,
    parse_scores_csv,
    synth_planted,
    write_letor,
    write_scores_csv,
)
from lbrank.linear import LinearHyper, LinearModel, load_linear, save_linear
from lbrank.nested import Activation, NestedHyper, init_nested, save_nested
from lbrank.sampler import ChainConfig, EnergyContext

import oracles


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_scores_csv(synth_planted(8, 5, 3, [0.0, 0.6, 1.2], seed=4), path)
    return path


def run(*args) -> int:
    return main([str(a) for a in args])


class TestConfigHandling:
    def test_flags_override_config_file(self, tmp_path, synth_csv):
        config = tmp_path / "run.cfg"
        config.write_text("mu = 0.5\nepochs = 1\nsamples = 10\n# comment\n")
        out = tmp_path / "model.txt"
        code = run("train", "--config", config, "--data", synth_csv,
                   "--out", out, "--mu", "0.2")
        assert code == EXIT_OK
        model = load_linear(out)
        assert model.hyper.mu == 0.2          # flag beats file
        assert model.hyper.epochs == 1        # file beats default

    def test_unknown_config_key(self, tmp_path, synth_csv, capsys):
        config = tmp_path / "run.cfg"
        # sampling: nested training samples one law, so no key selects it;
        # shuffle: both trainers visit the queries in dataset order;
        # thinning: a user who wants a better gradient raises samples
        for key, value in (("muu", "0.5"), ("sampling", "aggregate"), ("shuffle", "false"),
                           ("thinning", "1")):
            config.write_text(f"{key} = {value}\n")
            code = run("train", "--config", config, "--data", synth_csv,
                       "--out", tmp_path / "m.txt")
            assert code == EXIT_USAGE
            assert f"unknown config key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "m.txt").exists()

    def test_config_file_with_byte_order_mark(self, tmp_path, synth_csv):
        config = tmp_path / "run.cfg"
        config.write_bytes(codecs.BOM_UTF8 + b"epochs = 1\nmu = 0.5\n")
        out = tmp_path / "model.txt"
        assert run("train", "--config", config, "--data", synth_csv, "--out", out,
                   "--samples", 10) == EXIT_OK
        assert load_linear(out).hyper.epochs == 1

    def test_config_key_set_twice_is_usage_error(self, tmp_path, synth_csv, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("seed = 1\n# the same key again\nepochs = 1\n seed = 2\n")
        out = tmp_path / "m.txt"
        code = run("train", "--config", config, "--data", synth_csv, "--out", out)
        assert code == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"{config} line 4: key 'seed' was already set on line 1" in err

    def test_bad_mu_is_usage_error(self, tmp_path, synth_csv):
        code = run("train", "--data", synth_csv, "--out", tmp_path / "m.txt",
                   "--mu", "0")
        assert code == EXIT_USAGE

    def test_unparseable_flag_is_usage_error(self, tmp_path, synth_csv):
        code = run("train", "--data", synth_csv, "--out", tmp_path / "m.txt",
                   "--mu", "abc")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag", ["--gain", "--phi"])
    def test_unknown_choice_is_usage_error(self, tmp_path, synth_csv, flag):
        code = run("train", "--data", synth_csv, "--out", tmp_path / "m.txt",
                   flag, "bogus")
        assert code == EXIT_USAGE
        assert not (tmp_path / "m.txt").exists()

    def test_gain_shorter_than_the_data_is_usage_error(self, tmp_path, synth_csv):
        assert run("train", "--data", synth_csv, "--out", tmp_path / "m.txt",
                   "--gain", "sigmoid:3") == EXIT_USAGE
        assert run("eval", "--data", synth_csv, "--out", tmp_path / "r.csv",
                   "--gain", "sigmoid:3", "--topk", 4) == EXIT_USAGE
        assert run("eval", "--data", synth_csv, "--out", tmp_path / "r.csv",
                   "--gain", "sigmoid:3", "--topk", 3) == EXIT_OK


# The pairs of _KEY_VALUE_LINES, each a config file key and a linear model file field.
_KEY_VALUE_PAIRS = {"gain": "sigmoid:5", "mu": 0.25, "epochs": 3}
_KEY_VALUE_LINES = {
    "plain": "gain{sep}sigmoid:5\nmu{sep}0.25\nepochs{sep}3\n",
    "bom": "\ufeffgain{sep}sigmoid:5\nmu{sep}0.25\nepochs{sep}3\n",
    "blank-lines": "\ngain{sep}sigmoid:5\n\n   \nmu{sep}0.25\n\t\nepochs{sep}3\n\n",
    "comments": "# a run\ngain{sep}sigmoid:5  # trailing\n  # indented\nmu{sep}0.25\t#tight\n"
                "epochs{sep}3\n#\n",
    "spaces": "  gain  {sep}  sigmoid:5  \n\tmu\t{sep}\t0.25\nepochs {sep}3 \r\n",
}


class TestKeyValueFiles:
    """Config files (``key = value``) and model files (``key: value``) share one line grammar."""

    @pytest.mark.parametrize("layout", _KEY_VALUE_LINES)
    def test_config_and_model_files_read_the_same_pairs(self, tmp_path, layout):
        lines = _KEY_VALUE_LINES[layout]
        config = tmp_path / "run.cfg"
        config.write_bytes(lines.format(sep="=").encode())
        cfg = cli.build_config(cli.build_parser().parse_args(["train", "--config", str(config)]))
        model = tmp_path / "model.txt"
        model.write_bytes((lines.format(sep=":") + "format: lbrank-linear/1\nk: 2\nlam: 0.001\n"
                           "w: 0.5 0.5\n").encode())
        loaded = load_linear(model)
        from_config = {key: getattr(cfg, key) for key in _KEY_VALUE_PAIRS}
        from_model = {"gain": lbrank.gain_spec(loaded.gain), "mu": loaded.hyper.mu,
                      "epochs": loaded.hyper.epochs}
        assert from_config == from_model == _KEY_VALUE_PAIRS

    @pytest.mark.parametrize("lines, named", [
        ("mu{sep} 0.25\nepochs 3\n", "line 2: expected key {sep} value"),
        ("mu{sep} 0.25\n# again\n mu {sep} 0.5\n", "line 3: key 'mu' was already set on line 1"),
    ], ids=["no-separator", "key-set-twice"])
    def test_a_syntax_fault_names_the_file_and_line(self, tmp_path, synth_csv, lines, named,
                                                    capsys):
        config = tmp_path / "run.cfg"
        config.write_text(lines.format(sep="="))
        assert run("train", "--config", config, "--data", synth_csv,
                   "--out", tmp_path / "m.txt") == EXIT_USAGE
        assert (f"configuration error: {config} {named.format(sep='=')}\n"
                in capsys.readouterr().err)
        # the same lines ahead of a model file's own
        model = tmp_path / "model.txt"
        save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5), LinearHyper()), model)
        model.write_text(lines.format(sep=":") + model.read_text())
        assert run("infer", "--data", synth_csv, "--model-file", model,
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert f"data error: {model}: {named.format(sep=':')}\n" in capsys.readouterr().err

    def test_a_hash_inside_a_value_is_part_of_it(self, tmp_path, synth_csv, capsys):
        # only a '#' at a line's start or after whitespace starts a comment
        data = tmp_path / "#3.csv"
        data.write_bytes(Path(synth_csv).read_bytes())
        config = tmp_path / "run.cfg"
        config.write_text(f"data = {data}  # a comment\n")
        out = tmp_path / "r.csv"
        assert run("infer", "--config", config, "--baseline", "averaging", "--out", out) == EXIT_OK
        assert run("infer", "--data", synth_csv, "--baseline", "averaging",
                   "--out", tmp_path / "want.csv") == EXIT_OK
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
        # a number with a '#' in it is not a number
        config.write_text("mu = 0.25#tight\n")
        assert run("train", "--config", config, "--data", synth_csv,
                   "--out", tmp_path / "m.txt") == EXIT_USAGE
        assert ("configuration error: config key mu: could not convert string to float: "
                "'0.25#tight'") in capsys.readouterr().err
        model = tmp_path / "model.txt"
        save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5), LinearHyper()), model)
        _replace_line(model, "mu:", "mu: 0.25#tight")
        assert run("infer", "--data", synth_csv, "--model-file", model,
                   "--out", out) == EXIT_DATA
        assert (f"data error: {model}: could not convert string to float: '0.25#tight'"
                in capsys.readouterr().err)


class TestTrain:
    def test_writes_model_and_log(self, tmp_path, synth_csv):
        out = tmp_path / "model.txt"
        code = run("train", "--data", synth_csv, "--out", out,
                   "--epochs", 2, "--seed", 7)
        assert code == EXIT_OK
        model = load_linear(out)
        assert abs(model.weights.w.sum() - 1.0) <= 1e-9
        log_text = (tmp_path / "model.txt.log").read_text()
        assert log_text.startswith("epoch 1 objective ")
        assert "epochs_run" in log_text

    def test_outputs_are_byte_identical_across_reruns(self, tmp_path, synth_csv):
        args = ["--data", synth_csv, "--epochs", 2, "--seed", 99]
        run("train", "--out", tmp_path / "a.txt", *args)
        run("train", "--out", tmp_path / "b.txt", *args)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert ((tmp_path / "a.txt.log").read_bytes()
                == (tmp_path / "b.txt.log").read_bytes())

    @pytest.mark.parametrize("backend", ["mh", "exact"])
    @pytest.mark.parametrize("model", ["linear", "nested"])
    def test_a_constant_added_to_one_rankers_lists_changes_nothing(self, tmp_path, model,
                                                                    backend):
        # scores on a 1/64 grid, so adding 1024 to ranker 2 leaves every list
        # minus its minimum the same to the bit
        planted = synth_planted(12, 6, 4, [0.5, 1.0, 1.5, 2.0], seed=3).queries
        grid = [np.round(q.matrix * 64.0) / 64.0 for q in planted]
        moved = [m + np.array([[0.0], [0.0], [1024.0], [0.0]]) for m in grid]
        outputs = []
        for name, matrices in (("grid", grid), ("moved", moved)):
            data = tmp_path / f"{name}.csv"
            write_scores_csv(Dataset(tuple(QueryInstance(q.query_id, m, q.relevance)
                                           for q, m in zip(planted, matrices))), data)
            out = tmp_path / f"{name}.txt"
            assert run("train", "--model", model, "--backend", backend, "--data", data,
                       "--out", out, "--seed", 5) == EXIT_OK
            outputs.append((out.read_bytes(), out.with_name(out.name + ".log").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_nested_with_one_hidden_unit_matches_linear(self, tmp_path, synth_csv):
        shared = ["--data", synth_csv, "--epochs", 2, "--seed", 5,
                  "--backend", "exact"]
        run("train", "--model", "linear", "--out", tmp_path / "lin.txt", *shared)
        run("train", "--model", "nested", "--k2", 1, "--phi", "identity",
            "--init-jitter", 0, "--out", tmp_path / "nest.txt", *shared)
        lin = dict(line.split(": ", 1) for line in
                   (tmp_path / "lin.txt").read_text().splitlines())
        nest = dict(line.split(": ", 1) for line in
                    (tmp_path / "nest.txt").read_text().splitlines())
        assert nest["w1[0]"] == lin["w"]

    @staticmethod
    def _assert_matches_library(tmp_path, synth_csv, model, flags=(), gain="sigmoid",
                                phi=None, epochs=None):
        """``train`` with ``flags`` writes the model and log of the library call."""
        out = tmp_path / "cli.txt"
        assert run("train", "--model", model, "--data", synth_csv, "--out", out,
                   *flags) == EXIT_OK
        dataset = parse_scores_csv(synth_csv)
        spec = gain_from_spec(gain, capacity=dataset.n_max)
        hyper = {} if epochs is None else {"epochs": epochs}
        if model == "linear":
            fitted, log = linear.train(dataset, LinearHyper(**hyper), ChainConfig(), spec)
            linear.save_linear(fitted, tmp_path / "lib.txt")
        else:
            act = Activation() if phi is None else Activation(phi)
            fitted, log = nested.train(dataset, NestedHyper(**hyper), ChainConfig(), spec,
                                       act, act)
            nested.save_nested(fitted, tmp_path / "lib.txt")
        assert out.read_bytes() == (tmp_path / "lib.txt").read_bytes()
        logged = [float(line.split()[3])
                  for line in (tmp_path / "cli.txt.log").read_text().splitlines()
                  if line.startswith("epoch ")]
        assert logged == log.objectives
        return out.read_text().splitlines()

    @pytest.mark.parametrize("model", ["linear", "nested"])
    def test_defaults_match_the_library(self, tmp_path, synth_csv, model):
        # the CLI's defaults are the library's: same model bytes, same objectives
        self._assert_matches_library(tmp_path, synth_csv, model)

    @pytest.mark.parametrize("model, gain, phi, recorded", [
        ("linear", "log2", None, ["gain: log2:5"]),
        ("linear", "linear", None, ["gain: linear:5"]),
        ("nested", "sigmoid", "logistic", ["phi1: logistic", "phi2: logistic"]),
    ])
    def test_gain_and_phi_flags_match_the_library(self, tmp_path, synth_csv, model, gain,
                                                  phi, recorded):
        flags = ["--gain", gain, "--epochs", "3"] + ([] if phi is None else ["--phi", phi])
        lines = self._assert_matches_library(tmp_path, synth_csv, model, flags, gain, phi,
                                             epochs=3)
        assert set(recorded) <= set(lines)

    @pytest.mark.parametrize("model, unread", [
        ("linear", ["--k2", 3, "--lam1", 5, "--lam2", 5, "--phi", "identity",
                    "--init-jitter", 0.5]),
        ("nested", ["--lam", 5]),
    ])
    def test_the_other_structures_flags_are_not_read(self, tmp_path, synth_csv, model,
                                                     unread):
        # train takes both structures' flags and checks them, but reads only its own
        self._assert_matches_library(tmp_path, synth_csv, model, ["--epochs", 3, *unread],
                                     epochs=3)

    def test_missing_data_file(self, tmp_path):
        code = run("train", "--data", tmp_path / "nope.csv",
                   "--out", tmp_path / "m.txt")
        assert code == EXIT_DATA

    def test_internal_error_exit_code(self, tmp_path, synth_csv, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("invariant violated")
        monkeypatch.setattr(cli.linear, "train", boom)
        code = run("train", "--data", synth_csv, "--out", tmp_path / "m.txt")
        assert code == EXIT_INTERNAL


def _write_huge_spans(path: Path) -> Path:
    """Finite scores whose per-list spans overflow a double."""
    path.write_text("query_id,candidate_id,ranker_0,ranker_1,relevance\n"
                    "q1,0,1e308,0.5,2\n"
                    "q1,1,-1e308,0.2,0\n"
                    "q1,2,3.0,0.9,1\n"
                    "q2,0,-1.7e308,1.0,1\n"
                    "q2,1,1.7e308,0.0,0\n")
    return path


class TestNormalize:
    @pytest.mark.parametrize("args", [["--model", "linear"], ["--model", "nested"],
                                      ["--backend", "exact"]])
    def test_spans_past_the_float_range_need_normalize_to_train(self, tmp_path, args,
                                                                capsys):
        data = _write_huge_spans(tmp_path / "huge.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("train", "--data", data, "--out", tmp_path / "m.txt", *args,
                       "--epochs", 2) == EXIT_DATA
            err = capsys.readouterr().err
            assert "'q1'" in err and "--normalize true" in err
            assert not list(tmp_path.glob("m.txt*"))
            # scoring reads no score differences, so it needs no rescaling
            assert run("infer", "--data", data, "--baseline", "averaging",
                       "--out", tmp_path / "rankings.csv") == EXIT_OK
            assert run("eval", "--data", data, "--out", tmp_path / "eval.csv",
                       "--topk", 2) == EXIT_OK

    def test_spans_past_the_float_range_map_onto_unit_interval(self, tmp_path):
        data = _write_huge_spans(tmp_path / "huge.csv")
        rankings = tmp_path / "rankings.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run("train", "--data", data, "--out", tmp_path / "m.txt",
                       "--normalize", "true", "--epochs", 2) == EXIT_OK
            assert run("eval", "--data", data, "--out", tmp_path / "eval.csv",
                       "--normalize", "true", "--topk", 2) == EXIT_OK
            assert run("infer", "--data", data, "--baseline", "averaging",
                       "--out", rankings, "--normalize", "true") == EXIT_OK
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        scores = [float(line.split(",")[3])
                  for line in rankings.read_text().splitlines()[1:]]
        assert len(scores) == 5
        assert all(0.0 <= value <= 1.0 for value in scores)


def _write_largest_scores(path: Path, k: int) -> Path:
    """K lists; every score of query q2 is the largest double, those of q1 are small."""
    rows = [f"q1,{c},{','.join([str(c)] * k)},{c}\n" for c in range(3)]
    rows += [f"q2,{c},{','.join(['1.7976931348623157e308'] * k)},{c}\n" for c in range(3)]
    rankers = ",".join(f"ranker_{i}" for i in range(k))
    path.write_text(f"query_id,candidate_id,{rankers},relevance\n" + "".join(rows))
    return path


class TestAggregateScoresPastTheDoubleRange:
    # the readers accept every score; the uniform mean of K = 11 lists rounds
    # past the largest double, and so does a K = 2 model whose weights sum to
    # 1 + 5e-10, within the loader's simplex tolerance
    @pytest.mark.parametrize("command, k, weights, method", [
        ("eval", 11, None, "averaging"),
        ("infer", 11, None, "averaging"),
        ("infer", 2, "0.5 0.5000000005", "lin"),
    ], ids=["eval-mean-of-11", "infer-mean-of-11", "infer-model-weights-past-one"])
    def test_is_data_error_naming_query_and_method(self, tmp_path, command, k, weights,
                                                   method, capsys):
        data = _write_largest_scores(tmp_path / "big.csv", k)
        flags = ["--baseline", "averaging"] if command == "infer" else []
        if weights is not None:
            model = tmp_path / "lin.txt"
            save_linear(LinearModel(SimplexWeights.uniform(k), sigmoid_gain(3)), model)
            _replace_line(model, "w:", f"w: {weights}")
            flags = ["--model-file", model]
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(command, "--data", data, "--out", out, *flags) == EXIT_DATA
            err = capsys.readouterr().err
            assert f"data error: query 'q2': the {method} scores overflow a double" in err
            assert "--normalize true" in err
            assert not list(tmp_path.glob("out.csv*"))
            assert run(command, "--data", data, "--out", out, "--normalize", "true",
                       *flags) == EXIT_OK


    @pytest.mark.parametrize("command, what", [
        ("infer", "the averaging scores overflow a double"),
        ("eval", "the averaging scores overflow a double"),
        ("train", "its score spans overflow a double in training"),
    ])
    def test_names_the_first_bad_query_in_file_order(self, tmp_path, command, what, capsys):
        # the commands check the queries a candidate count N at a time, N
        # ascending, yet name the first bad query in the file: q3 (N = 3)
        # comes before q4 (N = 2), whose lines are not adjacent; each of the
        # two holds the largest double and its negation, so both the
        # averaging scores and the score spans overflow
        big = ",".join(["1.7976931348623157e308"] * 11)
        low = ",".join(["-1.7976931348623157e308"] * 11)
        rows = [f"q1,0,{','.join(['1'] * 11)},1\n", f"q3,0,{big},1\n", f"q4,0,{big},0\n",
                f"q3,1,{low},0\n", f"q1,1,{','.join(['2'] * 11)},0\n", f"q4,1,{low},1\n",
                f"q3,2,{big},0\n"]
        rankers = ",".join(f"ranker_{i}" for i in range(11))
        data = tmp_path / "big.csv"
        data.write_text(f"query_id,candidate_id,{rankers},relevance\n" + "".join(rows))
        flags = {"infer": ["--baseline", "averaging"], "eval": [], "train": ["--epochs", 1]}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(command, "--data", data, "--out", tmp_path / "out.csv",
                       *flags[command]) == EXIT_DATA
        assert f"data error: query 'q3': {what}" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["linear", "nested"])
    def test_train_takes_lists_whose_mean_is_past_the_double_range(self, tmp_path, model):
        # the mean of 11 lists at the largest double rounds to infinity, but
        # each list's span is 0, and the chain reads the lists minus their minima
        data = _write_largest_scores(tmp_path / "big.csv", 11)
        out = tmp_path / "m.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("train", "--model", model, "--data", data, "--out", out,
                       "--epochs", 2) == EXIT_OK
        if model == "linear":
            rows = [load_linear(out).weights.w]
        else:
            trained = nested.load_nested(out)
            rows = [*trained.w1, trained.w2.w]
        for w in rows:
            assert np.all(w >= 0.0) and abs(w.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("backend", ["mh", "exact"])
    def test_train_takes_a_span_of_the_largest_double(self, tmp_path, backend):
        # under the sigmoid gain g(4) < 1, so a list spanning [0, largest double]
        # passes the span guard; the chain's weighted mean of the lists minus
        # their minima stays within that span
        big = np.finfo(np.float64).max
        lists = np.array([[0.0, big, big / 2, big / 4], [big, 0.0, big / 4, big / 2]])
        data = tmp_path / "span.csv"
        write_scores_csv(Dataset((QueryInstance("q1", lists, np.array([0.0, 1.0, 0.0, 1.0])),)),
                         data)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("train", "--data", data, "--out", tmp_path / "m.txt", "--epochs", 2,
                       "--backend", backend) == EXIT_OK
            query = parse_scores_csv(data).queries[0]
            for weights in ([0.5, 0.5], [0.25, 0.75], [1.0, 0.0]):
                ybar = EnergyContext.from_query(query, weights, sigmoid_gain(4))._ybar
                assert np.all((ybar >= 0.0) & (ybar <= big))


def _float_kernels_fingerprint() -> str:
    """SHA-256 of the results of the BLAS and vectorised math kernels training uses.

    A training run is reproducible bit for bit on one platform, but the
    matrix-vector kernels that OpenBLAS picks for a CPU, and numpy's
    SIMD exp, log and tanh, round differently on others; this probe, at
    the shapes of ``TestGoldenOutputs``, tells those platforms apart.
    """
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, size=(5, 12))
    w1 = rng.dirichlet(np.ones(5), size=4)
    w2 = rng.dirichlet(np.ones(4))
    v = rng.uniform(-4.0, 4.0, size=512)
    parts = (w1[0] @ x, x @ v[:12], w1 @ x, w2 @ w1, np.exp(v), np.log(np.abs(v)),
             np.tanh(v), np.sum(v))
    return hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in parts)).hexdigest()


# SHA-256 of the model file and training log of each model TestGoldenOutputs
# trains, keyed by _float_kernels_fingerprint. Recorded with the per-step chain
# walk that the replay plan replaced: on an x86-64 host with AVX-512 (numpy
# 2.4.6, OpenBLAS's SkylakeX kernels), and on the same host with numpy's
# AVX-512 paths disabled and OpenBLAS's Haswell kernels, as on an AVX2 CPU.
GOLDEN_DIGESTS = {
    "eda6b5134966541d8d045a3fee724295796127bb22fb1079b6f86d67cd1ae064": {
        "linear.txt": "123b8a141966a3e5237711817519aa91cb850bd47cc1fb739c82b351ce6680ee",
        "linear.txt.log": "1289c0980630331f46237db5d03735775522cdb3ac2cc25dd4e6c11b15151711",
        "nested.txt": "83847815c09e461d6bbab5782957ebf3a920ddfe49f5d41e9beadc91cf66aca3",
        "nested.txt.log": "166dee5b275070e72ede038cb163b16199f1a3192b6e344e8efbea198162825d",
    },
    "ae658b95f1eb8757bb5249c9bacd92eb5852587c53f12a686c61a4c8d42df0ae": {
        "linear.txt": "d099d4f897500c3bdd100f8c2c6afc64de20b990168474931097ce51fc4392c7",
        "linear.txt.log": "442aa6190bf7e0995837a2050e86822e9ace6fe9ef95e0d599a10d9d2ac67d80",
        "nested.txt": "550e2ed253e1ebc7b72040840275cef7ae74d1fac1d8e0af4f2fe34ae370ddc4",
        "nested.txt.log": "fd205fb9478f8e8aeb941ea2c0ff2ea06f6d4c4a31ac91d6666c922cf2ac472a",
    },
}


class TestGoldenOutputs:
    def test_trained_files_match_recorded_digests(self, tmp_path):
        # a change that moves any sampler output changes these bytes and must
        # record new digests, saying why the outputs changed
        fingerprint = _float_kernels_fingerprint()
        if fingerprint not in GOLDEN_DIGESTS:
            pytest.skip(f"no digests recorded for float-kernel fingerprint {fingerprint}")
        data = tmp_path / "data.csv"
        write_scores_csv(synth_planted(20, 12, 5, [0.0, 0.5, 1.0, 1.5, 2.0], seed=13), data)
        got = {}
        for name, flags in (("linear", ["--model", "linear"]), ("nested", ["--model", "nested"])):
            out = tmp_path / f"{name}.txt"
            assert run("train", *flags, "--data", data, "--out", out,
                       "--epochs", 3, "--normalize", "true", "--seed", 7, "--k2", 4) == EXIT_OK
            for path in (out, out.with_name(out.name + ".log")):
                got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        assert got == GOLDEN_DIGESTS[fingerprint]


class TestBooleanFlags:
    def test_false_normalize_trains_the_default_model(self, tmp_path, synth_csv):
        for name, flags in (("default", []), ("false", ["--normalize", "false"]),
                            ("off", ["--normalize", " Off"])):
            assert run("train", "--data", synth_csv, "--out", tmp_path / f"{name}.txt",
                       "--epochs", 1, "--samples", 5, "--burn-in", 10, *flags) == EXIT_OK
        default = (tmp_path / "default.txt").read_bytes()
        assert (tmp_path / "false.txt").read_bytes() == default
        assert (tmp_path / "off.txt").read_bytes() == default

    def test_false_strict_zero_fills(self, tmp_path):
        gap, filled = tmp_path / "gap.csv", tmp_path / "filled.csv"
        header = "query_id,candidate_id,ranker_0,ranker_1\n"
        gap.write_text(header + "q1,0,0.5,\nq1,1,0.25,0.9\n")
        filled.write_text(header + "q1,0,0.5,0\nq1,1,0.25,0.9\n")
        assert run("infer", "--data", gap, "--baseline", "averaging",
                   "--out", tmp_path / "strict.csv") == EXIT_DATA
        for path in (gap, filled):
            assert run("infer", "--data", path, "--baseline", "averaging", "--strict", 0,
                       "--out", path.with_suffix(".out")) == EXIT_OK
        assert gap.with_suffix(".out").read_bytes() == filled.with_suffix(".out").read_bytes()


class TestInfer:
    def test_rankings_csv_schema(self, tmp_path, synth_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", synth_csv, "--out", model_path, "--epochs", 1)
        out = tmp_path / "rankings.csv"
        code = run("infer", "--data", synth_csv, "--model-file", model_path,
                   "--out", out)
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "query_id,rank,candidate_id,aggregated_score"
        first = lines[1].split(",")
        assert first[0] == "q00000"
        assert first[1] == "1"

    def test_uniform_model_matches_averaging_baseline_bytes(self, tmp_path, synth_csv):
        model_path = tmp_path / "uniform.txt"
        save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5),
                                LinearHyper()), model_path)
        a = tmp_path / "model_rankings.csv"
        b = tmp_path / "baseline_rankings.csv"
        run("infer", "--data", synth_csv, "--model-file", model_path, "--out", a)
        run("infer", "--data", synth_csv, "--baseline", "averaging", "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, synth_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", synth_csv, "--out", model_path, "--epochs", 1)
        a = tmp_path / "t1.csv"
        b = tmp_path / "t4.csv"
        run("infer", "--data", synth_csv, "--model-file", model_path,
            "--out", a, "--threads", 1)
        run("infer", "--data", synth_csv, "--model-file", model_path,
            "--out", b, "--threads", 4)
        assert a.read_bytes() == b.read_bytes()

    def test_baseline_and_model_file_together_is_usage_error(self, tmp_path, synth_csv):
        model_path = tmp_path / "uniform.txt"
        save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5),
                                LinearHyper()), model_path)
        out = tmp_path / "r.csv"
        assert run("infer", "--data", synth_csv, "--baseline", "averaging",
                   "--model-file", model_path, "--out", out) == EXIT_USAGE
        assert not out.exists()

    def test_baseline_beats_a_configured_model_file(self, tmp_path, synth_csv):
        # only the two flags clash; the config's model file is never read
        config = tmp_path / "run.cfg"
        config.write_text(f"model_file = {tmp_path / 'missing.txt'}\n")
        plain, configured = tmp_path / "plain.csv", tmp_path / "configured.csv"
        assert run("infer", "--data", synth_csv, "--baseline", "averaging",
                   "--out", plain) == EXIT_OK
        assert run("infer", "--config", config, "--data", synth_csv,
                   "--baseline", "averaging", "--out", configured) == EXIT_OK
        assert configured.read_bytes() == plain.read_bytes()

    def test_k_mismatch_is_data_error(self, tmp_path, synth_csv):
        model_path = tmp_path / "uniform.txt"
        save_linear(LinearModel(SimplexWeights.uniform(5), sigmoid_gain(5),
                                LinearHyper()), model_path)
        code = run("infer", "--data", synth_csv, "--model-file", model_path,
                   "--out", tmp_path / "r.csv")
        assert code == EXIT_DATA

    def test_data_format_comes_from_the_first_line(self, tmp_path, capsys):
        # a CSV starts with its query_id header, whatever the file is named
        files = _write_base_files(tmp_path)
        want = tmp_path / "want.csv"
        assert run("infer", "--data", files["data.csv"], "--baseline", "averaging",
                   "--out", want) == EXIT_OK
        for source, name in (("data.csv", "scores.txt"), ("data.letor", "letor.csv")):
            renamed = tmp_path / name
            renamed.write_bytes(files[source].read_bytes())
            out = tmp_path / f"from-{name}"
            assert run("infer", "--data", renamed, "--baseline", "averaging",
                       "--out", out) == EXIT_OK
            assert out.read_bytes() == want.read_bytes()
        config = tmp_path / "run.cfg"
        config.write_text("format = csv\n")
        assert run("infer", "--config", config, "--data", files["data.csv"],
                   "--baseline", "averaging", "--out", tmp_path / "r.csv") == EXIT_USAGE
        assert "unknown config key 'format'" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["linear.txt", "nested.txt"])
    @pytest.mark.parametrize("edit", ["blank-first-line", "no-space-after-colon",
                                      "format-after-k"])
    def test_model_file_is_recognised_as_its_loader_reads_it(self, tmp_path, model, edit):
        files = _write_base_files(tmp_path)
        text = files[model].read_text()
        first, rest = text.split("\n", 1)  # first is "format: <format>", then k or k1
        edited = tmp_path / "edited" / model  # same stem, so the same eval label
        edited.parent.mkdir()
        edited.write_text({"blank-first-line": "\n" + text,
                           "no-space-after-colon": first.replace(": ", ":") + "\n" + rest,
                           "format-after-k": rest.replace("\n", f"\n{first}\n", 1)}[edit])
        load = load_linear if model == "linear.txt" else nested.load_nested
        assert type(load(edited)) is type(load(files[model]))
        for path in (files[model], edited):
            assert run("infer", "--data", files["data.csv"], "--model-file", path,
                       "--out", path.parent / "rankings.csv") == EXIT_OK
            assert run("eval", "--data", files["data.csv"], "--model-file", path,
                       "--out", path.parent / "eval.csv") == EXIT_OK
        for name in ("rankings.csv", "eval.csv", "eval.csv.txt"):
            assert (edited.parent / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_csv_with_quoted_header_cells_is_read_as_csv(self, tmp_path):
        # spreadsheet tools quote every cell of the header they export
        files = _write_base_files(tmp_path)
        header, rest = files["data.csv"].read_text().split("\n", 1)
        quoted = tmp_path / "quoted" / "data.csv"
        quoted.parent.mkdir()
        quoted.write_text(",".join(f'"{cell}"' for cell in header.split(",")) + "\n" + rest)
        assert [(q.query_id, q.matrix.tolist(), q.relevance.tolist())
                for q in parse_scores_csv(quoted).queries] == \
            [(q.query_id, q.matrix.tolist(), q.relevance.tolist())
             for q in parse_scores_csv(files["data.csv"]).queries]
        for path in (files["data.csv"], quoted):
            assert run("infer", "--data", path, "--model-file", files["linear.txt"],
                       "--out", path.parent / "rankings.csv") == EXIT_OK
            assert run("eval", "--data", path, "--out", path.parent / "eval.csv") == EXIT_OK
        for name in ("rankings.csv", "eval.csv", "eval.csv.txt"):
            assert (quoted.parent / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_first_line_past_the_csv_field_limit_is_read_as_letor(self, tmp_path):
        # the csv module refuses the row, so the file is LETOR's
        files = _write_base_files(tmp_path)
        first, rest = files["data.letor"].read_text().split("\n", 1)
        long = tmp_path / "long.letor"
        long.write_text(f"{first} # {'x' * (csv.field_size_limit() + 1)}\n{rest}")
        for path in (files["data.letor"], long):
            assert run("infer", "--data", path, "--baseline", "averaging",
                       "--out", tmp_path / f"from-{path.name}") == EXIT_OK
        assert ((tmp_path / "from-long.letor").read_bytes()
                == (tmp_path / "from-data.letor").read_bytes())

    @pytest.mark.parametrize("source", ["data.csv", "data.letor", "linear.txt", "nested.txt"])
    def test_leading_byte_order_mark_is_read_as_nothing(self, tmp_path, source):
        # spreadsheet tools save UTF-8 text with a byte-order mark first
        files = _write_base_files(tmp_path)
        marked = tmp_path / f"marked-{source}"
        marked.write_bytes(codecs.BOM_UTF8 + files[source].read_bytes())
        for path in (files[source], marked):
            inputs = (["--data", path, "--baseline", "averaging"] if source.startswith("data.")
                      else ["--data", files["data.csv"], "--model-file", path])
            assert run("infer", *inputs, "--out", tmp_path / f"from-{path.name}") == EXIT_OK
        assert ((tmp_path / f"from-marked-{source}").read_bytes()
                == (tmp_path / f"from-{source}").read_bytes())

    def test_single_ranker_model_echoes_input_order(self, tmp_path):
        data = tmp_path / "one.csv"
        write_scores_csv(synth_planted(2, 4, 1, [0.3], seed=8), data)
        model_path = tmp_path / "one_model.txt"
        save_linear(LinearModel(SimplexWeights.uniform(1), sigmoid_gain(4),
                                LinearHyper()), model_path)
        out = tmp_path / "r.csv"
        assert run("infer", "--data", data, "--model-file", model_path,
                   "--out", out) == EXIT_OK
        assert out.exists()


# ids the csv module must quote: LETOR qids holding '"' or ',', which the
# fast path reads, and a quoted CSV id holding a comma, which the line parser reads
_QUOTED_ID_FILES = {
    "letor": ('2 qid:a"b 1:0.3 2:0.7\n0 qid:a"b 1:0.1 2:0.2\n'
              "1 qid:c,d 1:0.5 2:0.4\n0 qid:c,d 1:0.2 2:0.9\n1 qid:e 1:0.6 2:0.1\n"),
    "csv": ('query_id,candidate_id,ranker_0,ranker_1,relevance\n"x,y",0,0.5,0.1,1\n'
            '"x,y",1,0.2,0.8,0\nz,0,0.3,0.3,2\n'),
}


def _csv_module_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt", list(_QUOTED_ID_FILES))
def test_outputs_are_the_bytes_csv_writer_writes(tmp_path, fmt):
    data = tmp_path / f"data.{fmt}"
    data.write_text(_QUOTED_ID_FILES[fmt], encoding="utf-8")
    dataset = (parse_scores_csv if fmt == "csv" else parse_letor)(data)
    rankings = tmp_path / "rankings.csv"
    assert run("infer", "--data", data, "--baseline", "averaging", "--out", rankings) == EXIT_OK
    rows = [["query_id", "rank", "candidate_id", "aggregated_score"]]
    for q in dataset.queries:
        scores = weighted_average_scores(q.matrix, SimplexWeights.uniform(q.k).w)
        rows += [[q.query_id, rank, cand, repr(float(scores[cand]))]
                 for rank, cand in enumerate(ranking_from_scores(scores).tolist(), start=1)]
    assert rankings.read_bytes() == _csv_module_bytes(rows)

    model = tmp_path / 'uniform,"1".txt'  # a report label that needs quoting too
    save_linear(LinearModel(SimplexWeights.uniform(2), sigmoid_gain(2), LinearHyper()), model)
    report = tmp_path / "report.csv"
    assert run("eval", "--data", data, "--model-file", model, "--out", report,
               "--topk", 2) == EXIT_OK
    with open(report, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    ids = [q.query_id for q in dataset.queries]
    assert [row[:2] for row in rows[1:]] == [
        [method, query_id] for method in ("averaging", "borda", 'uniform,"1"')
        for query_id in ids] + [[method, "MEAN"] for method in ("averaging", "borda",
                                                                'uniform,"1"')]
    assert report.read_bytes() == _csv_module_bytes(rows)


@pytest.mark.parametrize("with_relevance", [True, False])
def test_write_scores_csv_writes_the_bytes_csv_writer_writes(tmp_path, with_relevance):
    matrix = [[0.5, -0.0, 1e-300], [0.1, 2.0, -7.25]]
    dataset = Dataset(tuple(
        QueryInstance(qid, matrix, [1.0, 0.0, 2.5] if with_relevance else None)
        for qid in ("x,y", 'a"b', "line\nbreak", "plain")))
    path = tmp_path / "data.csv"
    write_scores_csv(dataset, path)
    header = ["query_id", "candidate_id", "ranker_0", "ranker_1"]
    rows = [header + ["relevance"] if with_relevance else header]
    for q in dataset.queries:
        for cand in range(q.n):
            row = [q.query_id, cand, *[repr(float(v)) for v in q.matrix[:, cand]]]
            rows.append(row + [repr(float(q.relevance[cand]))] if with_relevance else row)
    assert path.read_bytes() == _csv_module_bytes(rows)


def test_outputs_read_back_ids_holding_carriage_returns(tmp_path):
    # the csv reader ends a row at a bare \r, so every writer must quote one
    data = tmp_path / "data.csv"
    data.write_text('query_id,candidate_id,ranker_0,ranker_1,relevance\n"q\r",0,0.5,0.1,1\n'
                    '"q\r",1,0.2,0.8,0\n"a\rb",0,0.3,0.3,2\n', encoding="utf-8", newline="")
    ids = ["q\r", "a\rb"]
    assert [q.query_id for q in parse_scores_csv(data).queries] == ids
    rankings, report = tmp_path / "rankings.csv", tmp_path / "report.csv"
    assert run("infer", "--data", data, "--baseline", "averaging", "--out", rankings) == EXIT_OK
    assert run("eval", "--data", data, "--out", report, "--topk", 2) == EXIT_OK
    for path, column, want in ((rankings, 0, ["q\r", "q\r", "a\rb"]),
                               (report, 1, [*ids, *ids, "MEAN", "MEAN"])):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(len(row) == 4 for row in rows)
        assert [row[column] for row in rows] == want


# ids and a report label that a % template or a quoted field could get wrong;
# a LETOR id holds no whitespace
_TEMPLATE_IDS = {
    "csv": ["%", "%%", "%s", "a%d", "x,y", 'a"b', "q\r", "line\nbreak", "héllo✓", "100%"],
    "letor": ["%", "%%", "%s", "a%d", "x,y", 'a"b', "héllo✓", "100%", '"%,"'],
}


@pytest.mark.parametrize("fmt", list(_TEMPLATE_IDS))
def test_outputs_are_the_bytes_the_row_at_a_time_writers_write(tmp_path, fmt):
    rng = np.random.default_rng(4)
    dataset = Dataset(tuple(
        QueryInstance(qid, rng.normal(size=(2, n)), rng.integers(0, 3, size=n))
        for qid, n in zip(_TEMPLATE_IDS[fmt], [1, 3, 5] * 4)))
    data = tmp_path / f"data.{fmt}"
    (write_scores_csv if fmt == "csv" else write_letor)(dataset, data)
    model = tmp_path / 'm%s,%d"%%ü.txt'
    save_linear(LinearModel(SimplexWeights([0.25, 0.75]), sigmoid_gain(8), LinearHyper()), model)
    rankings, report, want = tmp_path / "rankings.csv", tmp_path / "report.csv", tmp_path / "want"
    assert run("infer", "--data", data, "--model-file", model, "--out", rankings) == EXIT_OK
    assert run("eval", "--data", data, "--model-file", model, "--out", report,
               "--topk", 3) == EXIT_OK
    ids = [q.query_id for q in dataset.queries]

    # each file read back and written again one f-string per row
    with open(rankings, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    scores = {qid: np.zeros(q.n) for qid, q in zip(ids, dataset.queries)}
    for qid, _, cand, score in rows:
        scores[qid][int(cand)] = float(score)
    oracles.write_rankings_csv(want, ids, list(scores.values()))
    assert rankings.read_bytes() == want.read_bytes()

    with open(report, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    methods = ["averaging", "borda", 'm%s,%d"%%ü']
    tables = [[[float(v) for v in row[2:]] for row in rows if row[0] == method][:-1]
              for method in methods]
    oracles.write_metric_csv(want, header[2:], methods, ids, tables)
    assert report.read_bytes() == want.read_bytes()


class TestEval:
    def test_report_shape(self, tmp_path, synth_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", synth_csv, "--out", model_path, "--epochs", 1)
        out = tmp_path / "report.csv"
        code = run("eval", "--data", synth_csv, "--model-file", model_path,
                   "--out", out, "--topk", 5)
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,query_id,Top-1,Top-2,Top-3,Top-4,Top-5"
        methods = {line.split(",")[0] for line in lines[1:]}
        assert methods == {"averaging", "borda", "model"}
        assert sum(1 for line in lines if ",MEAN," in line) == 3
        table = (tmp_path / "report.csv.txt").read_text()
        assert table.splitlines()[0].startswith("Method")
        assert "Top-5" in table.splitlines()[0]

    def test_config_model_file_is_evaluated_unless_flags_name_models(self, tmp_path,
                                                                    synth_csv):
        model_path = tmp_path / "lin.txt"
        run("train", "--data", synth_csv, "--out", model_path, "--epochs", 1)
        other = tmp_path / "other.txt"
        save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5),
                                LinearHyper()), other)
        config = tmp_path / "run.cfg"
        config.write_text(f"model_file = {model_path}\n")
        out = tmp_path / "r.csv"
        for flags, model in (([], "lin"), (["--model-file", other], "other")):
            assert run("eval", "--config", config, "--data", synth_csv, "--out", out,
                       *flags) == EXIT_OK
            methods = {line.split(",")[0] for line in out.read_text().splitlines()[1:]}
            assert methods == {"averaging", "borda", model}

    @pytest.mark.parametrize("names", [("a/m.txt", "b/m.txt"), ("averaging.txt",),
                                       ("borda.txt",)])
    def test_colliding_report_labels_are_usage_error(self, tmp_path, synth_csv, names,
                                                     capsys):
        paths = []
        for name in names:
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5),
                                    LinearHyper()), path)
            paths += ["--model-file", path]
        out = tmp_path / "r.csv"
        assert run("eval", "--data", synth_csv, "--out", out, *paths) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"'{Path(names[-1]).stem}'" in err
        assert all(str(tmp_path / name) in err for name in names)
        assert not list(tmp_path.glob("r.csv*"))

    def test_query_named_mean_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "mean.csv"
        path.write_text("query_id,candidate_id,ranker_0,relevance\n"
                        "MEAN,0,0.5,1\nMEAN,1,0.2,0\nq1,0,0.1,1\nq1,1,0.4,0\n")
        assert run("eval", "--data", path, "--out", tmp_path / "r.csv") == EXIT_DATA
        assert "query 'MEAN'" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.csv*"))

    def test_missing_relevance_is_data_error(self, tmp_path):
        path = tmp_path / "norel.csv"
        path.write_text(
            "query_id,candidate_id,ranker_0\n"
            "q1,0,0.5\n"
            "q1,1,0.2\n")
        code = run("eval", "--data", path, "--out", tmp_path / "r.csv")
        assert code == EXIT_DATA

    def test_thread_count_does_not_change_output(self, tmp_path, synth_csv):
        model_path = tmp_path / "model.txt"
        run("train", "--data", synth_csv, "--out", model_path, "--epochs", 1)
        for threads in (1, 3):
            assert run("eval", "--data", synth_csv, "--model-file", model_path,
                       "--out", tmp_path / f"t{threads}.csv", "--threads", threads) == EXIT_OK
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t3.csv").read_bytes()

    def test_perfect_rankings_score_one(self, tmp_path):
        # every ranker reproduces the relevance order exactly
        data = tmp_path / "perfect.csv"
        write_scores_csv(synth_planted(5, 6, 2, [0.0, 0.0], seed=2), data)
        out = tmp_path / "report.csv"
        assert run("eval", "--data", data, "--out", out, "--topk", 3) == EXIT_OK
        for line in out.read_text().strip().splitlines()[1:]:
            assert line.split(",")[2:] == ["1.0", "1.0", "1.0"]

    def test_perfect_ranking_of_one_decimal_grades_scores_exactly_one(self, tmp_path):
        # the one ranker's scores are the grades, so both baselines rank perfectly
        data = tmp_path / "perfect.csv"
        data.write_text("query_id,candidate_id,ranker_0,relevance\n" + "".join(
            f"q1,{c},{grade},{grade}\n" for c, grade in enumerate(["2.2", "3.7", "3.3",
                                                                  "0.1", "3.4"])))
        out = tmp_path / "report.csv"
        assert run("eval", "--data", data, "--out", out, "--topk", 5) == EXIT_OK
        rows = out.read_text().splitlines()
        assert rows[0] == "method,query_id,Top-1,Top-2,Top-3,Top-4,Top-5"
        assert rows[1:] == [f"{method},{query_id},1.0,1.0,1.0,1.0,1.0"
                            for query_id in ("q1", "MEAN") for method in ("averaging", "borda")]


    @pytest.fixture
    def tiny_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        assert run("synth", "--n-queries", 3, "--n-candidates", 4, "--n-rankers", 2,
                   "--seed", 1, "--out", path) == EXIT_OK
        return path

    def test_gain_total_past_the_double_range_is_usage_error(self, tmp_path, tiny_csv,
                                                              capsys):
        # g(4) = 4e308 overflows: no NDCG and no training run can use the gain
        gain = "custom:1e308,1e308,1e308,1e308"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--data", tiny_csv, "--out", tmp_path / "r.csv",
                       "--gain", gain, "--topk", 4) == EXIT_USAGE
            assert run("train", "--data", tiny_csv, "--out", tmp_path / "m.txt",
                       "--gain", gain) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("gain total g(4) overflows a double") == 2
        assert not list(tmp_path.glob("[rm].*"))

    def test_grade_times_gain_total_past_the_double_range_is_data_error(self, tmp_path,
                                                                         tiny_csv, capsys):
        # g(2) is finite, but grade 2 of the first query times g(2) is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--data", tiny_csv, "--out", tmp_path / "r.csv",
                       "--gain", "custom:1e308,1e-300,1e-300,1e-300",
                       "--topk", 2) == EXIT_DATA
        assert "query 'q00000'" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))


class TestSynth:
    def test_synth_then_reload(self, tmp_path):
        out = tmp_path / "synthetic.csv"
        code = run("synth", "--out", out, "--n-queries", 6, "--n-candidates", 5,
                   "--n-rankers", 2, "--noise-levels", "0,0.5", "--seed", 3)
        assert code == EXIT_OK
        from lbrank.io import parse_scores_csv
        ds = parse_scores_csv(out)
        assert len(ds.queries) == 6
        assert ds.k == 2
        assert ds.has_relevance()

    def test_synth_is_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            run("synth", "--out", out, "--n-queries", 3, "--n-candidates", 4,
                "--n-rankers", 2, "--noise-levels", "0,1", "--seed", 12)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_noise_level_count(self, tmp_path):
        code = run("synth", "--out", tmp_path / "x.csv", "--n-rankers", 3,
                   "--noise-levels", "0,1")
        assert code == EXIT_USAGE


class TestBench:
    def test_super_linear_growth_is_flagged(self, tmp_path, monkeypatch, capsys):
        times = iter([1.0, 3.0] * 3)  # x3 per doubling on each axis
        monkeypatch.setattr(cli, "_time_epoch", lambda *args: next(times))
        out = tmp_path / "bench.csv"
        assert run("bench", "--out", out, "--bench-doublings", 1,
                   "--bench-queries", 1, "--bench-base-n", 2, "--bench-base-k", 1) == EXIT_OK
        lines = out.read_text().splitlines()[1:]
        assert [line.rsplit(",", 2)[1:] for line in lines] == (
            [["", ""], ["3.000", "SUPER-LINEAR"]] * 3)
        assert "warning: 3 measurement(s) grew faster than x2.5 per doubling" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("second, ratio, flag, warned", [
        (2.5, "2.500", "", False),
        # rounds to the limit but exceeds it: the flag reads the unrounded ratio
        (2.5004, "2.500", "SUPER-LINEAR", True),
    ])
    def test_flag_boundary(self, tmp_path, monkeypatch, capsys, second, ratio, flag, warned):
        times = iter([1.0, second] * 3)  # the same two timings on each axis
        monkeypatch.setattr(cli, "_time_epoch", lambda *args: next(times))
        out = tmp_path / "bench.csv"
        assert run("bench", "--out", out, "--bench-doublings", 1,
                   "--bench-queries", 1, "--bench-base-n", 2, "--bench-base-k", 1) == EXIT_OK
        lines = out.read_text().splitlines()
        # each axis's second row holds its one ratio
        assert [line.split(",")[0] for line in lines[2::2]] == ["n", "k", "k1k2"]
        assert all(line.endswith(f",{ratio},{flag}") for line in lines[2::2])
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        assert ("warning: 3 measurement(s) grew faster than x2.5" in captured.err) == warned

    def test_single_point_report(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run("bench", "--out", out, "--bench-doublings", 0,
                   "--bench-queries", 2, "--bench-base-n", 8,
                   "--bench-base-k", 2, "--bench-repeats", 1,
                   "--samples", 5, "--burn-in", 10)
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "axis,size,seconds_per_epoch,ratio,flag"
        assert len(lines) == 4  # one point per axis
        assert all(line.endswith(",") for line in lines[1:])  # no flags raised


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == EXIT_USAGE

    def test_help_exits_zero(self):
        assert run("--help") == EXIT_OK

    # "@name" stands for the file tmp_path / name
    @pytest.mark.parametrize("args, files, code", [
        (["train", "--out", "@out.csv"], {}, EXIT_USAGE),
        (["infer", "--data", "@data.csv", "--out", "@out.csv"], {}, EXIT_USAGE),
        (["infer", "--data", "@data.csv", "--model-file", "@nope.txt", "--out", "@out.csv"],
         {}, EXIT_DATA),
        (["train", "--data", "@data.csv", "--out", "@out.csv", "--model", "bogus"],
         {}, EXIT_USAGE),
        (["train", "--data", "@data.csv", "--out", "@out.csv", "--backend", "bogus"],
         {}, EXIT_USAGE),
        (["infer", "--data", "@data.csv", "--baseline", "averaging", "--out", "@out.csv",
          "--format", "bogus"], {}, EXIT_USAGE),
        (["infer", "--data", "@data.csv", "--baseline", "averaging", "--out", "@out.csv",
          "--normalize", "maybe"], {}, EXIT_USAGE),
        (["train", "--config", "@run.cfg", "--data", "@data.csv", "--out", "@out.csv"],
         {"run.cfg": "epochs 2\n"}, EXIT_USAGE),
        (["train", "--config", "@run.cfg", "--data", "@data.csv", "--out", "@out.csv"],
         {"run.cfg": "epochs = many\n"}, EXIT_USAGE),
        (["infer", "--data", "@k.letor", "--baseline", "averaging", "--out", "@out.csv"],
         {"k.letor": "1 qid:a 1:0.1 2:0.2\n0 qid:b 1:0.3\n"}, EXIT_DATA),
        (["infer", "--data", "@dup.letor", "--baseline", "averaging", "--out", "@out.csv"],
         {"dup.letor": "1 qid:a 1:0.1 1:0.2\n"}, EXIT_DATA),
        (["infer", "--data", "@data.csv", "--model-file", "@linear.txt", "--out", "@out.csv",
          "--model", "linear"], {}, EXIT_USAGE),
        (["infer", "--data", "@data.csv", "--model-file", "@linear.txt", "--out", "@out.csv",
          "--gain", "sigmoid"], {}, EXIT_USAGE),
        (["infer", "--data", "@data.csv", "--model-file", "@linear.txt", "--out", "@out.csv",
          "--backend", "mh"], {}, EXIT_USAGE),
        (["eval", "--data", "@data.csv", "--out", "@out.csv", "--model", "linear"],
         {}, EXIT_USAGE),
        (["eval", "--data", "@data.csv", "--out", "@out.csv", "--backend", "mh"],
         {}, EXIT_USAGE),
        (["train", "--data", "@data.csv", "--out", "@out.csv", "--sample", "5"],
         {}, EXIT_USAGE),
        (["eval", "--data", "@data.csv", "--out", "@out.csv", "--top", "3"], {}, EXIT_USAGE),
        # infer ranks with one model; eval would score both
        (["infer", "--data", "@data.csv", "--model-file", "@linear.txt",
          "--model-file", "@nested.txt", "--out", "@out.csv"], {}, EXIT_USAGE),
        # bench always times n, k and k1k2; no flag or config key picks the axes
        (["bench", "--out", "@out.csv", "--bench-axes", "n"], {}, EXIT_USAGE),
        (["bench", "--config", "@run.cfg", "--out", "@out.csv"],
         {"run.cfg": "bench_axes = n\n"}, EXIT_USAGE),
        # sizes whose allocation is refused at once, never one that could be touched
        (["eval", "--data", "@data.csv", "--out", "@out.csv", "--gain", f"sigmoid:{10 ** 12}"],
         {}, EXIT_USAGE),
        (["eval", "--data", "@data.csv", "--out", "@out.csv", "--topk", str(10 ** 12)],
         {}, EXIT_USAGE),
    ], ids=["missing-data", "infer-without-model-file", "missing-model-file",
            "bogus-model", "bogus-backend", "bogus-format", "normalize-maybe",
            "config-line-without-equals", "config-unparseable-value", "letor-ragged-k",
            "letor-duplicate-index", "infer-model", "infer-gain", "infer-backend",
            "eval-model", "eval-backend", "abbreviated-samples", "abbreviated-topk",
            "infer-two-model-files", "bench-axes-flag", "bench-axes-config-key",
            "eval-gain-capacity-unallocatable", "eval-topk-unallocatable"])
    def test_documented_exit_code(self, tmp_path, args, files, code, capsys):
        _write_base_files(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]
        assert run(*argv) == code
        assert capsys.readouterr().err
        assert not list(tmp_path.glob("out.csv*"))

    @pytest.mark.parametrize("args", [
        ["train", "--data", "@data.csv"],
        ["infer", "--data", "@data.csv", "--baseline", "averaging"],
        ["eval", "--data", "@data.csv"],
        ["synth"],
    ], ids=["train", "infer", "eval", "synth"])
    def test_output_path_that_is_a_directory_is_data_error(self, tmp_path, args, capsys):
        _write_base_files(tmp_path)
        (tmp_path / "out").mkdir()
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]
        assert run(*argv, "--out", tmp_path / "out") == EXIT_DATA
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("out, fault", [
        ("missing/m.txt", "No such file or directory"),
        ("data.csv/m.txt", "Not a directory"),
        ("out", "Is a directory"),
    ], ids=["missing-parent", "parent-is-a-file", "directory"])
    def test_train_checks_its_output_path_before_reading_the_data(self, tmp_path, out, fault,
                                                                  capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called before the --out check")

        monkeypatch.setattr(cli, "_load_dataset", refuse)
        monkeypatch.setattr(linear, "train", refuse)
        paths = _write_base_files(tmp_path)
        (tmp_path / "out").mkdir()
        assert run("train", "--data", paths["data.csv"], "--out", tmp_path / out) == EXIT_DATA
        err = capsys.readouterr().err
        assert fault in err and str(tmp_path / out) in err

    @pytest.mark.parametrize("out, fault", [
        ("missing/r.csv", "No such file or directory"),
        ("data.csv/r.csv", "Not a directory"),
        ("out", "Is a directory"),
    ], ids=["missing-parent", "parent-is-a-file", "directory"])
    @pytest.mark.parametrize("args", [
        ["infer", "--baseline", "averaging"],
        ["eval"],
    ], ids=["infer", "eval"])
    def test_infer_and_eval_check_their_output_path_before_reading_the_data(
            self, tmp_path, args, out, fault, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called before the --out check")

        monkeypatch.setattr(cli, "_load_dataset", refuse)
        paths = _write_base_files(tmp_path)
        (tmp_path / "out").mkdir()
        assert run(*args, "--data", paths["data.csv"], "--out", tmp_path / out) == EXIT_DATA
        err = capsys.readouterr().err
        assert fault in err and str(tmp_path / out) in err

    def test_eval_checks_its_report_path_before_reading_the_data(self, tmp_path, capsys,
                                                                 monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("called before the --out check")

        monkeypatch.setattr(cli, "_load_dataset", refuse)
        paths = _write_base_files(tmp_path)
        (tmp_path / "r.csv.txt").mkdir()
        assert run("eval", "--data", paths["data.csv"], "--out", tmp_path / "r.csv") == EXIT_DATA
        assert f"Is a directory: '{tmp_path / 'r.csv.txt'}'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


def _write_base_files(directory: Path) -> dict[str, Path]:
    """A small CSV, the same data as LETOR, and one linear and one nested model."""
    dataset = synth_planted(4, 5, 3, [0.0, 0.6, 1.2], seed=4)
    paths = {name: directory / name for name in
             ("data.csv", "data.letor", "linear.txt", "nested.txt")}
    write_scores_csv(dataset, paths["data.csv"])
    write_letor(dataset, paths["data.letor"])
    save_linear(LinearModel(SimplexWeights.uniform(3), sigmoid_gain(5), LinearHyper()),
                paths["linear.txt"])
    save_nested(init_nested(3, NestedHyper(k2=2), sigmoid_gain(5)), paths["nested.txt"])
    return paths


def _replace_line(path: Path, prefix: str, new: str | None) -> None:
    lines = [new if line.startswith(prefix) else line
             for line in path.read_text().splitlines()]
    path.write_text("\n".join(line for line in lines if line is not None) + "\n")


class TestMalformedInputs:
    """Bad data and model files exit 3 and bad options exit 2, never 4."""

    @pytest.fixture
    def files(self, tmp_path):
        return _write_base_files(tmp_path)

    @pytest.mark.parametrize("n, args, named", [
        (5, ["--mu", "inf"], "mu must be finite"),
        (5, ["--lam", "inf"], "lam must be finite"),
        (5, ["--model", "nested", "--lam2", "inf"], "lam2 must be finite"),
        (5, ["--seed", str(2 ** 64)], "seed must be a non-negative 64-bit integer"),
        (9, ["--backend", "exact"], "limited to N <= 8"),
        (5, ["--init-jitter", "-0.5"], "init_jitter must be in [0, 1)"),
        (5, ["--model", "nested", "--init-jitter", "2"], "init_jitter must be in [0, 1)"),
        (5, ["--model", "nested", "--lam", "inf"], "lam must be finite"),
        (5, ["--model", "nested", "--sampling", "per_unit"],
         "unrecognized arguments: --sampling per_unit"),
        (5, ["--shuffle", "true"], "unrecognized arguments: --shuffle true"),
        (5, ["--thinning", "2"], "unrecognized arguments: --thinning 2"),
    ])
    def test_bad_training_option(self, tmp_path, n, args, named, capsys):
        data = tmp_path / "data.csv"
        write_scores_csv(synth_planted(3, n, 3, [0.0, 0.6, 1.2], seed=4), data)
        assert run("train", "--data", data, "--out", tmp_path / "m.txt",
                   "--epochs", 1, *args) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    def test_bad_option_in_config_file(self, tmp_path, files, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("init_jitter = 2\n")
        assert run("train", "--config", config, "--model", "nested", "--epochs", 1,
                   "--data", files["data.csv"], "--out", tmp_path / "m.txt") == EXIT_USAGE
        assert "init_jitter must be in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("make", [lambda p: p.write_bytes(b"mu = 0.1\n\xff\xfe\n"),
                                      lambda p: p.mkdir(),
                                      lambda p: None],
                             ids=["undecodable", "directory", "missing"])
    def test_unreadable_config_file(self, tmp_path, files, make, capsys):
        config = tmp_path / "run.cfg"
        make(config)
        assert run("train", "--config", config, "--epochs", 1,
                   "--data", files["data.csv"], "--out", tmp_path / "m.txt") == EXIT_USAGE
        assert str(config) in capsys.readouterr().err
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("command, args, named", [
        ("synth", ["--n-queries", "0"], "n_queries must be >= 1"),
        ("synth", ["--n-candidates", "0"], "n_candidates must be >= 1"),
        ("synth", ["--n-rankers", "0"], "n_rankers must be >= 1"),
        ("synth", ["--n-rankers", "2", "--noise-levels=-1,0"], "noise levels must be finite"),
        ("synth", ["--n-rankers", "2", "--noise-levels=nan,0"], "noise levels must be finite"),
        ("bench", ["--bench-queries", "0"], "bench_queries must be >= 1"),
        ("bench", ["--bench-base-n", "0"], "bench_base_n must be >= 1"),
        ("bench", ["--bench-base-k", "0"], "bench_base_k must be >= 1"),
        ("bench", ["--bench-repeats", "0"], "bench_repeats must be >= 1"),
        ("bench", ["--bench-doublings", "-1"], "bench_doublings must be >= 0"),
        ("synth", ["--n-rankers", "3", "--noise-levels", "1,2"], "need 3 noise levels, got 2"),
        ("synth", ["--n-rankers", "3", "--noise-levels="], "need 3 noise levels, got 0"),
        ("bench", ["--thinning", "2"], "unrecognized arguments: --thinning 2"),
    ])
    def test_bad_synth_or_bench_option(self, tmp_path, command, args, named, capsys,
                                       monkeypatch):
        epochs = []
        monkeypatch.setattr(cli, "_time_epoch", lambda *a: epochs.append(a) or 1.0)
        small_bench = ["--bench-doublings", "0", "--bench-queries", "2",
                       "--bench-base-n", "4", "--bench-base-k", "2", "--bench-repeats", "1"]
        out = tmp_path / "out.csv"
        assert run(command, "--out", out, *(small_bench if command == "bench" else []),
                   *args) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not out.exists()
        assert not epochs  # rejected before any bench work

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_csv_score(self, tmp_path, files, value, capsys):
        _replace_line(files["data.csv"], "q00001,2,", f"q00001,2,0.5,{value},0.1,1.0")
        assert run("infer", "--data", files["data.csv"], "--baseline", "averaging",
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize("args, named", [
        (["--mu", "1e308", "--lam", "1e308"], ["--mu times the largest gradient", "--lam"]),
        (["--model", "nested", "--lam1", "1e308"], ["objective", "--lam1 and --lam2"]),
    ], ids=["step", "nested-penalty"])
    def test_training_past_the_double_range_is_usage_error(self, tmp_path, args, named,
                                                           capsys):
        data = tmp_path / "d.csv"
        assert run("synth", "--out", data, "--n-queries", 5, "--n-candidates", 4,
                   "--n-rankers", 3, "--seed", 1) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--data", data, "--out", tmp_path / "m.txt", *args) == EXIT_USAGE
        err = capsys.readouterr().err
        assert all(text in err for text in named)
        assert not list(tmp_path.glob("m.txt*"))

    def test_csv_error_names_the_line_its_row_starts_on(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        # each quoted query id holds a newline, so the bad row is on line 6
        data.write_text('query_id,candidate_id,ranker_0\n"a\nb",0,1\n"a\nb",1,2\nq,0,oops\n')
        assert run("infer", "--data", data, "--baseline", "averaging",
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert "line 6: bad number 'oops'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("value", ["-1.0", "nan", "inf"])
    def test_bad_csv_relevance(self, tmp_path, files, value):
        _replace_line(files["data.csv"], "q00001,2,", f"q00001,2,0.5,0.2,0.1,{value}")
        assert run("eval", "--data", files["data.csv"],
                   "--out", tmp_path / "r.csv") == EXIT_DATA

    @pytest.mark.parametrize("qid", ["q\x00x", ""], ids=["nul", "empty"])
    def test_bad_csv_query_id(self, tmp_path, qid, capsys):
        data = tmp_path / "data.csv"
        data.write_text(f"query_id,candidate_id,ranker_0\n{qid},0,0.5\n{qid},1,0.25\n")
        out = tmp_path / "r.csv"
        assert run("infer", "--data", data, "--baseline", "averaging",
                   "--out", out) == EXIT_DATA
        assert "line" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["1 qid:q00000 1:0.5 2:nan 3:0.1",
                                      "1 qid:q00000 1:0.5 2:-inf 3:0.1",
                                      "-2 qid:q00000 1:0.5 2:0.2 3:0.1",
                                      "nan qid:q00000 1:0.5 2:0.2 3:0.1",
                                      "1 qid:q0\x00 1:0.5 2:0.2 3:0.1",
                                      # the csv module refuses NUL before Python 3.11
                                      # and reads it after; its first cell is not
                                      # query_id either way, so this is LETOR's
                                      "query_id\x00,candidate_id,ranker_0,relevance"])
    def test_bad_letor_line(self, tmp_path, files, line, capsys):
        files["data.letor"].write_text(line + "\n")
        assert run("eval", "--data", files["data.letor"],
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    def test_letor_line_without_features(self, tmp_path, files, capsys):
        files["data.letor"].write_text("1 qid:a\n")
        assert run("eval", "--data", files["data.letor"],
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert "line 1: no features" in capsys.readouterr().err

    @staticmethod
    def _infer_capped(tmp_path: Path, line: str, *flags: str) -> subprocess.CompletedProcess:
        """``infer`` on a one-line LETOR file under a 1.5 GB address-space cap.

        The cap turns a regression that allocates by the largest feature
        index into a quick MemoryError instead of exhausting the host.
        """
        data = tmp_path / "data.letor"
        data.write_text(line + "\n")
        cap = 1_500_000_000
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(Path(lbrank.__file__).resolve().parent.parent),
                          os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-B", "-m", "lbrank", "infer",
             "--baseline", "averaging", *flags, "--data", str(data),
             "--out", str(tmp_path / "r.csv")],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))

    def test_huge_letor_feature_index(self, tmp_path):
        # a strict parse names the first gap without enumerating every index
        # below the largest
        result = self._infer_capped(tmp_path, "0 qid:1 1:0.1 1000000000000:0.2")
        assert result.returncode == EXIT_DATA, result.stderr
        assert "missing feature index 2" in result.stderr

    def test_huge_letor_feature_index_when_not_strict(self, tmp_path):
        # zero-filling stops at the largest index that some line of the
        # query scores; an index no line scores is a data error
        result = self._infer_capped(tmp_path, "0 qid:1 1:0.1 1000000000000:0.2",
                                    "--strict", "false")
        assert result.returncode == EXIT_DATA, result.stderr
        assert "qid 1: no line scores feature index 2 (largest index 1000000000000)" \
            in result.stderr

    @pytest.mark.parametrize("text, named", [
        ("", "no data lines"),
        ("# a comment\n\n  # and another\n", "no data lines"),
        ("query_id,candidate_id,ranker_0\n", "no data rows"),
    ], ids=["empty", "letor-comments-only", "csv-header-only"])
    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_file_without_data_rows(self, tmp_path, command, text, named, capsys):
        path = tmp_path / "data.txt"
        path.write_text(text)
        source = ["--baseline", "averaging"] if command == "infer" else []
        assert run(command, "--data", path, *source, "--out", tmp_path / "r.csv") == EXIT_DATA
        assert f"data error: {path}: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["data.csv", "data.letor"])
    # undecodable bytes, and a field beyond the csv module's size limit
    @pytest.mark.parametrize("tail", [b"\xff\xfe\n", b'q9,0,"' + b"7" * 200_000 + b'"\n'])
    def test_unreadable_data(self, tmp_path, files, name, tail):
        path = files[name]
        path.write_bytes(path.read_bytes() + tail)
        assert run("eval", "--data", path, "--out", tmp_path / "r.csv") == EXIT_DATA

    @pytest.mark.parametrize("model, prefix, new", [
        ("linear.txt", "gain:", None),
        ("linear.txt", "w:", "w: 0.5 0.5"),
        ("linear.txt", "w:", "w: 0.5 0.5 0.5"),
        ("linear.txt", "w:", "w: nan 0.5 0.5"),
        ("linear.txt", "gain:", "gain: bogus:3"),
        ("linear.txt", "mu:", "mu: -1"),
        ("nested.txt", "w1[1]:", None),
        ("nested.txt", "w2:", "w2: 1.0"),
        ("nested.txt", "w1[0]:", "w1[0]: 0.5 0.5"),
        ("nested.txt", "w1[0]:", "w1[0]: 0.5 0.5 0.5"),
        ("nested.txt", "phi1:", "phi1: relu"),
        ("nested.txt", "sampling:", "sampling: bogus"),
        ("nested.txt", "k2:", "k2: many"),
        ("linear.txt", "gain:", f"gain: log2:{10 ** 12}"),  # refused at once
    ])
    def test_bad_model_file(self, tmp_path, files, model, prefix, new, capsys):
        _replace_line(files[model], prefix, new)
        assert run("infer", "--data", files["data.csv"], "--model-file", files[model],
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_per_unit_model_file_is_refused(self, tmp_path, files, capsys):
        # nested training samples one law, and its files name it: aggregate
        path = files["nested.txt"]
        _replace_line(path, "sampling:", "sampling: per_unit")
        assert run("eval", "--data", files["data.csv"], "--model-file", path,
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert f"data error: {path}: sampling 'per_unit'" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("model, line, named", [
        ("linear.txt", "w: 0.5 0.25 0.25", "line 8: key 'w' was already set on line 7"),
        ("linear.txt", "bogus: 7", "unknown key 'bogus'"),
        ("linear.txt", "w1[0]: 0.5 0.25 0.25", "unknown key 'w1[0]'"),
        ("nested-k2-1.txt", "w1[1]: 0.5 0.25 0.25", "unknown key 'w1[1]'"),
    ])
    def test_model_file_keys_the_writer_does_not_write(self, tmp_path, files, model, line,
                                                        named, capsys):
        # each line would load, and the model infer, if the reader let it in
        path = tmp_path / model
        if model == "nested-k2-1.txt":
            save_nested(init_nested(3, NestedHyper(k2=1), sigmoid_gain(5)), path)
        path.write_text(path.read_text() + line + "\n")
        assert run("infer", "--data", files["data.csv"], "--model-file", path,
                   "--out", tmp_path / "r.csv") == EXIT_DATA
        assert f"data error: {path}: {named}" in capsys.readouterr().err

    def test_undecodable_model_file(self, tmp_path, files):
        path = files["nested.txt"]
        path.write_bytes(path.read_bytes().replace(b"phi1", b"\xff\xfe", 1))
        assert run("infer", "--data", files["data.csv"], "--model-file", path,
                   "--out", tmp_path / "r.csv") == EXIT_DATA


# Bytes the mutations insert. No digits, so a mutated count or capacity can
# only shrink or stop parsing, never ask for a huge allocation.
_JUNK = [b"\x00", b"\xff", b",", b":", b"#", b'"', b" ", b"\n", b"-", b"e", b".", b"x"]
_TOKENS = [b"nan", b"inf", b"-inf", b"-1", b"1e999", b"", b"abc", b"qid:", b"0:1"]

_mutation = st.tuples(st.sampled_from(["delete", "insert", "replace", "token",
                                       "drop_line", "copy_line"]),
                      st.integers(0, 10**6), st.integers(0, 10**6))


def _mutate(data: bytes, edits) -> bytes:
    for kind, at, pick in edits:
        if kind in ("drop_line", "copy_line"):
            lines = data.split(b"\n")
            i = at % len(lines)
            lines[i:i + 1] = [] if kind == "drop_line" else [lines[i], lines[i]]
            data = b"\n".join(lines)
            continue
        if not data:
            continue
        i = at % len(data)
        if kind == "delete":
            data = data[:i] + data[i + 1:]
        elif kind == "insert":
            data = data[:i] + _JUNK[pick % len(_JUNK)] + data[i:]
        elif kind == "replace":
            data = data[:i] + _JUNK[pick % len(_JUNK)] + data[i + 1:]
        else:
            sep = b"," if pick % 2 else b" "
            tokens = data.split(sep)
            tokens[at % len(tokens)] = _TOKENS[pick // 2 % len(_TOKENS)]
            data = sep.join(tokens)
    return data


class TestFuzzedInputs:
    @pytest.mark.parametrize("target", ["data.csv", "data.letor", "linear.txt", "nested.txt"])
    @given(edits=st.lists(_mutation, min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_files_never_exit_internal(self, target, edits, capsys):
        with tempfile.TemporaryDirectory() as tmp:
            files = _write_base_files(Path(tmp))
            path = files[target]
            path.write_bytes(_mutate(path.read_bytes(), edits))
            out = Path(tmp) / "out.csv"
            if target.startswith("data"):
                codes = [run("eval", "--data", path, "--out", out),
                         run("infer", "--data", path, "--baseline", "averaging", "--out", out)]
            else:
                codes = [run("infer", "--data", files["data.csv"], "--model-file", path,
                             "--out", out)]
        assert set(codes) <= {EXIT_OK, EXIT_DATA}, capsys.readouterr().err


def test_cli_import_loads_no_scipy_and_no_thread_pool():
    src = str(Path(lbrank.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, lbrank.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    assert result.stdout.strip() == "[]"
