"""In-process span tracer for the per-layer (``--trace 1``) run.

The tracer wraps ``lbrank``'s public functions at the module attribute
where their caller looks them up, so ``src/`` stays untouched. Each call
appends a span ``[name, start, end, parent]`` to an in-memory list; the
spans are written out when the run ends. A span's self time is its
duration minus the durations of its direct children (calls are
single-threaded, so children never overlap), and the self times of one
command's spans add up to its ``cli.main`` root span.

Span names are ``<layer>.<function>``; the layers are ``lbrank``'s
modules: cli, io, core, sampler, linear, nested and metrics.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("cli", "io", "core", "sampler", "linear", "nested", "metrics")

# (module whose attribute the caller looks up, attribute, span name)
PATCH_POINTS = [
    ("lbrank.io", "parse_scores_csv", "io.parse_scores_csv"),
    ("lbrank.io", "parse_letor", "io.parse_letor"),
    ("lbrank.io", "normalize_minmax", "io.normalize_minmax"),
    ("lbrank.cli", "gain_from_spec", "core.gain_from_spec"),
    ("lbrank.cli", "ranking_from_scores", "core.ranking_from_scores"),
    ("lbrank.cli", "weighted_average_scores", "core.weighted_average_scores"),
    ("lbrank.metrics", "ranking_from_scores", "core.ranking_from_scores"),
    ("lbrank.metrics", "weighted_average_scores", "core.weighted_average_scores"),
    ("lbrank.linear", "weighted_average_scores", "core.weighted_average_scores"),
    ("lbrank.linear", "expected_divergences", "sampler.expected_divergences"),
    ("lbrank.nested", "expected_divergences", "sampler.expected_divergences"),
    ("lbrank.linear", "train", "linear.train"),
    ("lbrank.linear", "sgd_gradient", "linear.sgd_gradient"),
    ("lbrank.linear", "update_weights", "linear.update_weights"),
    ("lbrank.linear", "objective", "linear.objective"),
    ("lbrank.linear", "save_linear", "linear.save_linear"),
    ("lbrank.linear", "load_linear", "linear.load_linear"),
    ("lbrank.linear", "aggregate_scores", "linear.aggregate_scores"),
    ("lbrank.nested", "train", "nested.train"),
    ("lbrank.nested", "per_list_expectation", "nested.per_list_expectation"),
    ("lbrank.nested", "update_w1", "nested.update_w1"),
    ("lbrank.nested", "update_w2", "nested.update_w2"),
    ("lbrank.nested", "objective", "nested.objective"),
    ("lbrank.nested", "save_nested", "nested.save_nested"),
    ("lbrank.nested", "load_nested", "nested.load_nested"),
    ("lbrank.nested", "aggregate_scores", "nested.aggregate_scores"),
    ("lbrank.metrics", "ndcg_at_k", "metrics.ndcg_at_k"),
    ("lbrank.metrics", "baseline_average", "metrics.baseline_average"),
    ("lbrank.metrics", "baseline_borda", "metrics.baseline_borda"),
    ("lbrank.metrics", "write_metric_csv", "metrics.write_metric_csv"),
    ("lbrank.metrics", "format_table", "metrics.format_table"),
]


class Tracer:
    """Span recorder; :meth:`installed` patches ``lbrank`` while it is active."""

    def __init__(self, capture_chains: bool = False) -> None:
        self.spans: list[list] = []
        self.rows = 0  # data rows returned by the io parsers
        # (ctx, cfg, backend) of every expected_divergences call, when capturing
        self.capture_chains = capture_chains
        self.chain_calls = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._observe(name, args, kwargs, result)
            return result

        return traced

    def _observe(self, name, args, kwargs, result) -> None:
        if name in ("io.parse_scores_csv", "io.parse_letor"):
            self.rows += sum(q.n for q in result.queries)
        elif name == "sampler.expected_divergences" and self.capture_chains:
            backend = args[2] if len(args) > 2 else kwargs.get("backend", "mh")
            self.chain_calls.append((args[0], args[1], backend))

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own (used for the root)."""
        return self._wrap(name, fn)(*args)

    @contextlib.contextmanager
    def installed(self):
        from lbrank.sampler import EnergyContext

        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            # a classmethod is looked up on the class, so it is patched there
            saved.append((EnergyContext, "from_query", EnergyContext.__dict__["from_query"]))
            EnergyContext.from_query = classmethod(
                self._wrap("sampler.context_build", EnergyContext.from_query.__func__))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def root_residuals(spans: list[list], own: list[float]) -> list[float]:
    """Per root span: its duration minus the self times of its whole tree.

    Zero up to rounding when every span lies inside its parent.
    """
    root_of = []
    residual: dict[int, float] = {}
    for idx, (_, start, end, parent) in enumerate(spans):
        root = idx if parent < 0 else root_of[parent]
        root_of.append(root)
        if root == idx:
            residual[idx] = end - start
        residual[root] -= own[idx]
    return list(residual.values())


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and the per-function times the metrics name."""
    own = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), own_s in zip(spans, own):
        incl[name] += end - start
        self_by_name[name] += own_s
        calls[name] += 1
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, own_s in self_by_name.items():
        out[name.split(".", 1)[0] + ".self_s"] += own_s
    out["cli.main_s"] = incl["cli.main"]
    out.update({
        "io.parse_scores_csv_s": incl["io.parse_scores_csv"],
        "io.parse_letor_s": incl["io.parse_letor"],
        "core.ranking_from_scores_s": incl["core.ranking_from_scores"],
        "core.ranking_from_scores_calls": calls["core.ranking_from_scores"],
        "metrics.ndcg_at_k_s": incl["metrics.ndcg_at_k"],
        "metrics.ndcg_at_k_calls": calls["metrics.ndcg_at_k"],
        "metrics.baseline_borda_s": incl["metrics.baseline_borda"],
        "metrics.baseline_average_s": incl["metrics.baseline_average"],
        "metrics.write_metric_csv_s": incl["metrics.write_metric_csv"],
        "sampler.expected_divergences_s": incl["sampler.expected_divergences"],
        "sampler.expected_divergences_calls": calls["sampler.expected_divergences"],
        "sampler.context_build_s": incl["sampler.context_build"],
        "linear.sgd_gradient_self_s": self_by_name["linear.sgd_gradient"],
        "linear.update_weights_s": incl["linear.update_weights"],
        "linear.objective_s": incl["linear.objective"],
        # train evaluates the objective once per epoch run
        "linear.epochs_run": calls["linear.objective"],
        "linear.updates": calls["linear.update_weights"],
        "nested.per_list_expectation_self_s": self_by_name["nested.per_list_expectation"],
        "nested.update_w1_s": incl["nested.update_w1"],
        "nested.update_w2_s": incl["nested.update_w2"],
        "nested.objective_s": incl["nested.objective"],
        "nested.epochs_run": calls["nested.objective"],
    })
    return out


def replay_chains(chain_calls) -> dict[str, float]:
    """Re-run the captured chains alone through the public ``sample_orders``.

    Gives the chain's share of ``expected_divergences`` and its step rate.
    The retained states are one step apart when thinning is 1, so the
    acceptance rate is the share of consecutive retained states that differ.
    """
    from lbrank.sampler import sample_orders

    steps = changed = pairs = 0
    elapsed = 0.0
    for ctx, cfg, backend in chain_calls:
        if backend != "mh" or ctx.n < 2:
            continue
        start = time.perf_counter()
        orders = sample_orders(ctx, cfg)
        elapsed += time.perf_counter() - start
        steps += cfg.burn_in + cfg.num_samples * cfg.thinning
        if cfg.thinning == 1:
            changed += int((orders[1:] != orders[:-1]).any(axis=1).sum())
            pairs += orders.shape[0] - 1
    return {
        "sampler.chain_s": elapsed,
        "sampler.chain_steps": steps,
        "sampler.chain_steps_per_s": steps / elapsed if elapsed else 0.0,
        "sampler.accept_rate": changed / pairs if pairs else 0.0,
    }
