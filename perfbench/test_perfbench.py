"""Checks of the benchmark's own tracer and counters.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lbrank.cli  # noqa: E402
from lbrank import synth_planted  # noqa: E402
from lbrank.io import write_scores_csv  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402

COUNTS = ("sampler.chain_steps", "sampler.expected_divergences_calls", "linear.epochs_run",
          "linear.updates", "nested.epochs_run", "io.rows", "metrics.ndcg_at_k_calls",
          "core.ranking_from_scores_calls")


def traced_train(tmp_path: Path, model: str, n_queries: int, seed: int = 3) -> dict:
    data = tmp_path / f"planted-{n_queries}.csv"
    write_scores_csv(synth_planted(n_queries, 6, 3, [0.5, 1.0, 2.0], seed=seed), data)
    tracer = tracing.Tracer(capture_chains=True)
    argv = ["train", "--model", model, "--normalize", "true", "--epochs", "2",
            "--k2", "3", "--seed", str(seed), "--threads", "1",
            "--data", str(data), "--out", str(tmp_path / f"{model}-{n_queries}.model")]
    with tracer.installed():
        assert tracer.span("cli.main", lbrank.cli.main, argv) == 0
    summary = tracing.summarize(tracer.spans)
    summary["io.rows"] = tracer.rows
    summary.update(tracing.replay_chains(tracer.chain_calls))
    summary["residuals"] = tracing.root_residuals(tracer.spans, tracing.self_times(tracer.spans))
    return summary


@pytest.mark.parametrize("model", ["linear", "nested"])
def test_counts_repeat_exactly_for_one_seed(tmp_path, model):
    first = traced_train(tmp_path, model, 8)
    second = traced_train(tmp_path, model, 8)
    assert {c: first[c] for c in COUNTS} == {c: second[c] for c in COUNTS}
    assert first["sampler.chain_steps"] > 0
    assert first[f"{model}.epochs_run"] == 2


@pytest.mark.parametrize("model", ["linear", "nested"])
def test_chain_steps_grow_exactly_linearly_with_queries(tmp_path, model):
    small = traced_train(tmp_path, model, 5)
    large = traced_train(tmp_path, model, 10)
    assert small[f"{model}.epochs_run"] == large[f"{model}.epochs_run"] == 2
    # 2 epochs x (one gradient + one objective chain per query) x (burn-in + samples)
    assert small["sampler.chain_steps"] == 2 * 2 * 5 * (100 + 50)
    assert large["sampler.chain_steps"] == 2 * small["sampler.chain_steps"]


def test_self_times_add_up_to_main(tmp_path):
    summary = traced_train(tmp_path, "linear", 6)
    layers = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert layers == pytest.approx(summary["cli.main_s"], rel=1e-9)
    assert max(map(abs, summary["residuals"])) < 1e-9


def test_patches_are_removed_after_the_run(tmp_path):
    from lbrank import linear, sampler

    before = (linear.expected_divergences, sampler.EnergyContext.from_query)
    traced_train(tmp_path, "linear", 4)
    assert (linear.expected_divergences, sampler.EnergyContext.from_query) == before


def test_self_times_subtract_direct_children_only():
    spans = [["cli.main", 0.0, 10.0, -1], ["linear.train", 1.0, 9.0, 0],
             ["sampler.expected_divergences", 2.0, 5.0, 1], ["io.parse_letor", 6.0, 7.0, 1]]
    assert np.allclose(tracing.self_times(spans), [2.0, 4.0, 3.0, 1.0])
    assert tracing.root_residuals(spans, tracing.self_times(spans)) == [0.0]


def test_reference_loop_runs_only_beside_a_command():
    reference = run.Reference()
    try:
        time.sleep(0.3)
        with reference.running():
            start = time.monotonic()
            time.sleep(1.0)
            end = time.monotonic()
        time.sleep(0.3)
    finally:
        reference.close()
    assert reference.proc.returncode is not None
    assert sum(1 for s, _, _ in reference.records if s < start) <= 2
    assert all(s <= end for s, _, _ in reference.records)
    assert reference.cpu_per_iteration(start, end) > 0.0
