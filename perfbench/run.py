#!/usr/bin/env python3
"""End-to-end benchmark of the ``lbrank`` CLI: train, infer and eval.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads (``train`` and ``ingest``)
are defined in ``workloads.py``; their inputs are generated from ``--seed``
before any timing starts.

``--trace 0`` runs ``python -m lbrank ...`` as child processes, one pass of
the workload's commands after another, for about ``--seconds`` seconds,
with a bare ``import lbrank`` probe before each pass. The harness and every
child run on one core. While a command runs, ``reference.py`` runs beside
it on that core at a lower priority, so the two take turns and meet the
same host speed. It
reports medians over the passes: ``setup_s`` (wall time of interpreter
start plus ``import lbrank``, run alone), ``job_ref`` (the CPU time of one
pass, ``train`` of a linear then a nested model or ``infer`` then ``eval``,
in units of the reference loop's mean CPU time per iteration over the same
interval), ``peak_rss_mb`` (highest ``ru_maxrss`` of the lbrank children)
and ``ndcg_at5`` (mean NDCG@5 of the workload's linear and nested model
against the planted grades, read from an ``eval`` report). The CPU seconds
of a pass (``job_cpu_s``) are printed as information: on a shared host they
move with the host's speed, which ``job_ref`` divides out.

``--trace 1`` loads ``lbrank`` in-process and alternates untraced and
traced passes of the same commands through ``lbrank.cli.main``; see
``tracing.py``. It reports per-layer times and counts, medians over the
traced passes, plus the tracing overhead.

Every command's output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and the
exit code is 1 when a check failed.
"""

from __future__ import annotations

import os

# Single-threaded BLAS for this process and every child, on every commit.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse
import contextlib
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

# A command shorter than this many reference iterations has no steady speed.
MIN_REFERENCE_SAMPLES = 5

# Per-layer metrics that count work; they must repeat exactly between passes.
COUNT_SUFFIXES = ("_calls", "_run", ".updates", ".rows")

SETUP_PROBE = ["-c", "import lbrank"]
IMPORT_PROBE = ["-c", "import time; t = time.perf_counter(); import lbrank.cli; "
                      "print(repr(time.perf_counter() - t))"]


class Ops:
    """Counts calls made and checks failed; keeps the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def record(self, label: str, returncode: int, check) -> None:
        self.attempted += 1
        problem = f"exit code {returncode}" if returncode else check()
        if problem:
            self.errors.append(f"{label}: {problem}")


class Child:
    """One finished ``python`` child: monotonic start and end, exit code, rusage."""

    def __init__(self, args: list[str], log: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with open(log, "wb") as out:
            self.start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=subprocess.STDOUT, cwd=ROOT, env=env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, self.usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.end = time.monotonic()
        self.code = os.waitstatus_to_exitcode(status)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime


class Reference:
    """``reference.py`` on the harness's core, stopped except inside ``running()``."""

    def __init__(self) -> None:
        self.records: list[tuple[float, float, float]] = []
        self.proc = subprocess.Popen([sys.executable, str(REFERENCE)], stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        self.started = threading.Event()
        self.reader = threading.Thread(target=self._read)
        self.reader.start()
        if not self.started.wait(CHILD_TIMEOUT_S) or self.proc.poll() is not None:
            self.close()
            raise RuntimeError("reference loop did not start")
        os.kill(self.proc.pid, signal.SIGSTOP)

    def _read(self) -> None:
        for line in self.proc.stdout:
            start, end, cpu = map(float, line.split())
            self.records.append((start, end, cpu))
            self.started.set()
        self.started.set()

    @contextlib.contextmanager
    def running(self):
        os.kill(self.proc.pid, signal.SIGCONT)
        try:
            yield
        finally:
            os.kill(self.proc.pid, signal.SIGSTOP)

    def close(self) -> None:
        """Kill the loop and read every line it wrote."""
        self.proc.kill()
        self.proc.wait()
        self.reader.join()

    def cpu_per_iteration(self, start: float, end: float) -> float | None:
        """Mean CPU seconds of the iterations run between two monotonic times."""
        inside = [cpu for s, e, cpu in self.records if s >= start and e <= end]
        return statistics.fmean(inside) if len(inside) >= MIN_REFERENCE_SAMPLES else None


def keep_going(start: float, seconds: float, pass_times: list[float]) -> bool:
    """Start another pass only if a typical pass still fits in the window."""
    return time.perf_counter() - start + statistics.median(pass_times) <= seconds


def quality(prepared, ops: Ops, work: Path) -> dict[str, float]:
    """NDCG@5 of each model and of the averaging baseline, from an eval report."""
    if prepared.quality is not None:
        child = Child(["-m", "lbrank", *prepared.quality.argv],
                      work / f"{prepared.quality.label}.log")
        ops.record(prepared.quality.label, child.code, prepared.quality.check)
    from workloads import read_mean_rows

    means = read_mean_rows(prepared.report) if prepared.report.exists() else {}
    return {label: means[label][4] if label in means else float("nan")
            for label in [*prepared.models, "averaging"]}


def run_timed(prepared, seconds: float, work: Path, report: dict) -> tuple[dict, Ops]:
    ops = Ops()
    probe_log = work / "probe.log"
    child = Child(SETUP_PROBE, probe_log)  # warm-up: bytecode and file cache
    ops.record("setup probe", child.code, lambda: None)
    setup, pass_times, commands = [], [], []
    peak_kib = 0
    reference = Reference()
    try:
        start = time.perf_counter()
        while not pass_times or keep_going(start, seconds, pass_times):
            pass_start = time.perf_counter()
            child = Child(SETUP_PROBE, probe_log)
            ops.record("setup probe", child.code, lambda: None)
            setup.append(child.wall_s)
            for cmd in prepared.commands:
                with reference.running():
                    child = Child(["-m", "lbrank", *cmd.argv], work / f"{cmd.label}.log")
                ops.record(cmd.label, child.code, cmd.check)
                peak_kib = max(peak_kib, child.usage.ru_maxrss)
                commands.append((len(pass_times), cmd.label, child))
            pass_times.append(time.perf_counter() - pass_start)
    finally:
        reference.close()

    job_cpu = [0.0] * len(pass_times)
    job_ref = [0.0] * len(pass_times)
    per_command: dict[str, list[float]] = {c.label: [] for c in prepared.commands}
    for index, label, child in commands:
        iteration_s = reference.cpu_per_iteration(child.start, child.end)
        ops.record(f"{label} reference", 0, lambda: iteration_s is None and
                   f"fewer than {MIN_REFERENCE_SAMPLES} reference iterations beside it")
        ratio = child.cpu_s / iteration_s if iteration_s else float("nan")
        job_cpu[index] += child.cpu_s
        job_ref[index] += ratio
        per_command[label].append(ratio)

    ndcg = quality(prepared, ops, work)
    metrics = {"setup_s": statistics.median(setup), "job_ref": statistics.median(job_ref),
               "peak_rss_mb": peak_kib / 1024.0,
               "ndcg_at5": statistics.fmean(ndcg[label] for label in prepared.models)}
    report["passes"] = len(pass_times)
    report["reference_iterations"] = len(reference.records)
    report["samples"] = {"setup_s": setup, "job_cpu_s": job_cpu, "job_ref": job_ref,
                         **{f"{label}_ref": v for label, v in per_command.items()}}
    report["information"] = {
        "job_cpu_s": statistics.median(job_cpu),
        **{f"{label}_ref": statistics.median(v) for label, v in per_command.items()}}
    report["ndcg_at5_by_method"] = ndcg
    return metrics, ops


def run_traced(prepared, seconds: float, work: Path, report: dict) -> tuple[dict, Ops]:
    import lbrank.cli
    import tracing

    ops = Ops()
    import_s = []
    for _ in range(3):
        child = Child(IMPORT_PROBE, work / "import.log")
        ops.record("import probe", child.code, lambda: None)
        if not child.code:
            import_s.append(float((work / "import.log").read_text().split()[-1]))

    def one_pass(tracer) -> float:
        total = 0.0
        for cmd in prepared.commands:
            with open(work / f"{cmd.label}.out", "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out):
                start = time.perf_counter()
                code = (tracer.span("cli.main", lbrank.cli.main, cmd.argv) if tracer
                        else lbrank.cli.main(cmd.argv))
                total += time.perf_counter() - start
            ops.record(cmd.label, code, cmd.check)
        return total

    untraced, traced, summaries = [], [], []
    residual = 0.0
    first = None
    start = time.perf_counter()
    while not traced or keep_going(start, seconds, [u + t for u, t in zip(untraced, traced)]):
        untraced.append(one_pass(None))
        tracer = tracing.Tracer(capture_chains=first is None)
        with tracer.installed():
            traced.append(one_pass(tracer))
        first = first or tracer
        summary = tracing.summarize(tracer.spans)
        summary["io.rows"] = tracer.rows
        summaries.append(summary)
        residual = max([residual, *map(abs, tracing.root_residuals(
            tracer.spans, tracing.self_times(tracer.spans)))])

    counts = [name for name in summaries[0] if name.endswith(COUNT_SUFFIXES)]
    unsteady = [name for name in counts if len({s[name] for s in summaries}) != 1]
    ops.record("trace counts", 0,
               lambda: unsteady and f"{unsteady} differ between passes of one run")
    ops.record("trace self times", 0,
               lambda: residual > 1e-9 and f"self times miss their root by {residual:.3g} s")

    metrics = {name: summaries[0][name] if name in counts
               else statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics.update(tracing.replay_chains(first.chain_calls))
    parse_s = metrics["io.parse_scores_csv_s"] + metrics["io.parse_letor_s"]
    metrics["io.rows_per_s"] = metrics["io.rows"] / parse_s if parse_s else 0.0
    metrics["sampler.gather_s"] = (metrics["sampler.expected_divergences_s"]
                                   - metrics["sampler.chain_s"])
    metrics["cli.import_s"] = statistics.median(import_s) if import_s else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    report["passes"] = len(traced)
    report["samples"] = {"untraced_main_s": untraced, "traced_main_s": traced}
    report["trace_overhead_frac"] = metrics["trace.overhead_s"] / statistics.median(untraced)
    report["span_root_residual_s"] = residual
    own = tracing.self_times(first.spans)
    roots = [idx for idx, span in enumerate(first.spans) if span[3] < 0]
    report["cli_self_s_by_command"] = {cmd.label: own[idx]
                                       for cmd, idx in zip(prepared.commands, roots)}
    spans_path = work / "spans.json"
    spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                      "spans": first.spans}), encoding="utf-8")
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    return metrics, ops


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "machine": platform.machine(), "child_env": BLAS_THREADS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lbrank" / "__init__.py").is_file():
        print(f"perfbench: no lbrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error, so every child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # One core for the harness, the reference loop and every lbrank child.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = workloads.WORKLOADS[args.workload]
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    gen_start = time.perf_counter()
    prepared = wl.prepare(wl.params, work, args.seed)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "why": wl.why, "params": wl.params, "data": prepared.data,
              "generate_s": time.perf_counter() - gen_start, "environment": environment()}

    runner = run_traced if args.trace else run_timed
    metrics, ops = runner(prepared, args.seconds, work, report)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    ops.record("metric names", 0, lambda: set(units) != set(metrics) and
               f"metrics {sorted(set(units) ^ set(metrics))} do not match BENCHMARK.json")
    report["metrics"] = metrics
    report["errors"] = ops.errors
    report["failed_ops"] = len(ops.errors) / ops.attempted
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    for key in ("workload", "seed", "params", "data", "environment", "passes"):
        print(f"{key}: {report[key]}")
    for label, value in report.get("information", {}).items():
        print(f"{label:38s} {value!r} (median of {report['passes']} passes, information)")
    for label, value in report.get("cli_self_s_by_command", {}).items():
        print(f"{'cli.self_s ' + label:38s} {value!r} s (first traced pass)")
    for name, value in metrics.items():
        print(f"{name:38s} {value!r} {units.get(name, '')}")
    for label, value in report.get("ndcg_at5_by_method", {}).items():
        print(f"{'ndcg_at5 ' + label:38s} {value!r} (information, not a gate)")
    if "trace_overhead_frac" in report:
        print(f"{'trace overhead / untraced main()':38s} {report['trace_overhead_frac']:.3f}")
    print(f"{'failed_ops':38s} {len(ops.errors)}/{ops.attempted}")
    for error in ops.errors:
        print(f"FAILED {error}")

    print(json.dumps({
        "correct": not ops.errors,
        "attempted": ops.attempted,
        "failed": len(ops.errors),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()},
    }))
    return 0 if not ops.errors else 1


if __name__ == "__main__":
    sys.exit(main())
