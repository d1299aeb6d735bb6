"""Seeded end-to-end and per-layer benchmark for atomlat.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

One process, one job at a time (a closed loop with one client). The run
generates its inputs from the seed, sets up, then repeats the workload's
fixed job list in passes until ``--seconds`` have elapsed, checking every
output. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every job
untraced and traced back to back and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. See NOTES.md for the metric
definitions and the recorded baseline.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99, 98, 95, 90, 75, 50)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "noop_ratio": "ratio",
         "grid_cells_sum": "count", "grid_cells_max": "count", "atoms_out_max": "count",
         "atoms_in_sum": "count", "kept_ratio": "ratio", "pairs_out": "count",
         "bytes_out": "bytes", "overhead_s": "s"}

# Per-layer metric names, in report order. Counts and times are per pass
# over the workload's job list; maxima are over all traced passes.
LAYER_METRICS = (
    ["crossing.full_crossing." + k for k in
     ("calls", "busy_s", "noop_ratio", "grid_cells_sum", "grid_cells_max", "atoms_out_max")]
    + ["model.reduce." + k for k in ("calls", "busy_s", "atoms_in_sum", "kept_ratio")]
    + ["model.new_model.calls", "model.new_model.busy_s",
       "model.holds.calls", "model.holds.busy_s",
       "model.enumerate_theory.busy_s", "model.enumerate_elements.busy_s",
       "model.segment_signatures.busy_s",
       "oracle.closure_oracle.busy_s", "oracle.closure_oracle.pairs_out",
       "oracle.axiom_check.busy_s"]
    + [f"algebra.{op}.{k}" for op in spans.TRACED["algebra"] for k in ("busy_s", "self_s")]
    + ["script.parse_script.busy_s", "script.run_script.self_s",
       "serialize.model_to_json.busy_s", "serialize.model_from_json.busy_s",
       "serialize.model_to_dot.busy_s", "serialize.bytes_out",
       "cli.main.calls", "cli.main.self_s", "trace.overhead_s"]
)


def import_package():
    """Import atomlat from this checkout's src/, dropping any loaded copy."""
    for name in [n for n in sys.modules if n == "atomlat" or n.startswith("atomlat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"atomlat.{name}")
            for name in ("cli", "serialize", "oracle", "algebra")}
    return SimpleNamespace(**mods)


def run_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = api.cli.main(argv)
    return rc, out.getvalue()


def run_job(api, job):
    """Execute one job through the package's public entry points."""
    kind = job["kind"]
    if kind == "cli":
        return run_cli(api, job["argv"])
    with open(job["path"], encoding="utf-8") as handle:
        model = api.serialize.model_from_json(handle.read())
    if kind == "axioms":
        return 0, api.oracle.axiom_check(model).ok
    gens = [model.sig.term(text) for text in job["gens"]]
    result = api.algebra.subalgebra(model, gens, job["names"], route="crossing")
    return 0, api.serialize.model_to_json(result)


def setup(workload, seed, workdir, scale):
    """Import, generate, build stored models, read inputs. Returns (api, jobs)."""
    api = import_package()
    golden = workloads.load_golden(GOLDEN)
    jobs, builds = workloads.generate(workload, seed, workdir, golden, scale)
    for argv in builds:
        rc, _ = run_cli(api, argv)
        if rc != 0:
            raise RuntimeError(f"setup step {argv} exited with {rc}")
    stored = {}
    for job in jobs:
        path = job.get("path") or job["spec"].get("model")
        if path and path not in stored:
            with open(path, encoding="utf-8") as handle:
                stored[path] = checks.parse_model(handle.read())
        if job["check"] == "query":
            names, masks = stored[path]
            if checks.digest(names, masks) != job["spec"]["model_digest"]:
                raise RuntimeError(f"stored model {path} differs from the recorded reference")
            job["spec"]["masks"] = masks
    return api, jobs


def work_dir(workload, seed):
    return os.path.join(ROOT, ".bench_work", f"{workload}_{seed}_{os.getpid()}")


def setup_once(workload, seed):
    """Set up in this fresh process, say so on stdout, then clean up."""
    workdir = work_dir(workload, seed)
    try:
        setup(workload, seed, workdir, 1.0)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_setups(workload, seed):
    """setup_s samples: each the time from starting a fresh interpreter to its
    set-up being done (process start -> import atomlat -> inputs read)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            times.append(time.perf_counter() - start)
            rest = child.stdout.read()
        if child.returncode != 0 or line != "ready\n":
            raise RuntimeError(f"set-up process exited with {child.returncode}: {line}{rest}")
    return times


class Outcomes:
    """Counts job executions and output failures; checks each distinct output once."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._passed = [set() for _ in jobs]

    def record(self, k, rc, out, error=None):
        self.attempted += 1
        job = self.jobs[k]
        if error is not None:
            reason = f"raised {error!r}"
        elif rc != job["rc"]:
            reason = f"exit code {rc}, expected {job['rc']}"
        else:
            key = out if isinstance(out, bool) else checks.text_digest(out)
            if key in self._passed[k]:
                return
            reason = checks.CHECKS[job["check"]](out, job["spec"])
            if reason is None:
                self._passed[k].add(key)
                return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{job['id']}: {reason}")


def run_timed(api, k, job, outcomes, tracer=None):
    """Run one job, record its outcome, return its latency."""
    error = rc = out = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc, out = run_job(api, job)
        else:
            rc, out = tracer.call("bench.job", run_job, api, job)
    except Exception as exc:  # a job that raises counts as failed
        error = exc
    elapsed = time.perf_counter() - t0
    outcomes.record(k, rc, out, error)
    return elapsed


def run_pass(api, jobs, outcomes, latencies):
    """Run the job list once, appending each job's latency; returns the pass time."""
    total = 0.0
    for k, job in enumerate(jobs):
        elapsed = run_timed(api, k, job, outcomes)
        latencies[k].append(elapsed)
        total += elapsed
    return total


def run_paired_pass(api, jobs, outcomes, latencies, traced_latencies, tracer):
    """Run every job untraced and traced back to back, untraced first on
    even jobs and traced first on odd ones, so that a change of machine
    speed or a cache warmed by the first run lands on both alike. Appends
    each job's two latencies; returns the untraced and the traced pass time."""
    untraced = traced = 0.0
    for k, job in enumerate(jobs):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                elapsed = run_timed(api, k, job, outcomes)
                latencies[k].append(elapsed)
                untraced += elapsed
                continue
            tracer.install()
            try:
                elapsed = run_timed(api, k, job, outcomes, tracer)
            finally:
                tracer.uninstall()
            traced_latencies[k].append(elapsed)
            traced += elapsed
    tracer.pass_ends.append(len(tracer.spans))
    return untraced, traced


def measure(api, jobs, seconds, outcomes, tracer=None):
    """Repeat the job list until ``seconds`` elapse (the last pass is always
    finished). Returns the untraced and the traced pass times and per-job
    latencies; with a tracer every pass is a paired pass."""
    latencies = [[] for _ in jobs]
    traced_latencies = [[] for _ in jobs]
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while not untraced or time.perf_counter() < deadline:
        if tracer is None:
            untraced.append(run_pass(api, jobs, outcomes, latencies))
        else:
            plain, with_trace = run_paired_pass(api, jobs, outcomes, latencies,
                                                traced_latencies, tracer)
            untraced.append(plain)
            traced.append(with_trace)
    return untraced, traced, latencies, traced_latencies


def trace_overhead(latencies, traced_latencies):
    """Sum over jobs of the median over passes of traced minus untraced
    latency: the tracing cost of one pass, robust to a single slow run."""
    return sum(statistics.median([t - u for u, t in zip(plain, traced)])
               for plain, traced in zip(latencies, traced_latencies))


def tail(values):
    """(percentile, value): the highest ladder percentile with >= 10 values
    beyond it, else the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= 10:
            rank = min(n, max(1, -(-p * n // 100)))
            return p, ordered[int(rank) - 1]
    return 100, ordered[-1]


def end_to_end(setup_times, passes, latencies):
    per_job = [statistics.median(v) for v in latencies]
    pct, tail_value = tail(per_job)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "op_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, pct


def layer_metrics(span_list, n_passes, overhead_s):
    selfs = spans.self_times(span_list)
    calls, busy, own = {}, {}, {}
    extras = {}
    for s, self_s in zip(span_list, selfs):
        name = s[spans.NAME]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s
        if not s[spans.NESTED]:
            busy[name] = busy.get(name, 0.0) + s[spans.END] - s[spans.START]
        if s[spans.EXTRA]:
            extras.setdefault(name, []).append(s[spans.EXTRA])

    def xs(name, key):
        return [e[key] for e in extras.get(name, ())]

    def ratio(num, den):
        return num / den if den else 0.0

    fc, rd = "crossing.full_crossing", "model.reduce"
    grid = xs(fc, "grid")
    sums = {
        fc + ".grid_cells_sum": sum(grid),
        rd + ".atoms_in_sum": sum(xs(rd, "atoms_in")),
        "oracle.closure_oracle.pairs_out": sum(xs("oracle.closure_oracle", "pairs_out")),
        "serialize.bytes_out": sum(xs("serialize.model_to_json", "bytes_out"))
        + sum(xs("serialize.model_to_dot", "bytes_out")),
    }
    direct = {
        fc + ".noop_ratio": ratio(sum(xs(fc, "noop")), calls.get(fc, 0)),
        rd + ".kept_ratio": ratio(sum(xs(rd, "atoms_out")), sum(xs(rd, "atoms_in"))),
        fc + ".grid_cells_max": max(grid, default=0),
        fc + ".atoms_out_max": max(xs(fc, "atoms_out"), default=0),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for metric in LAYER_METRICS:
        layer_fn, _, kind = metric.rpartition(".")
        if metric in direct:
            value = direct[metric]
        elif metric in sums:
            value = sums[metric] / n_passes
        elif kind == "calls":
            value = calls.get(layer_fn, 0) / n_passes
        elif kind == "busy_s":
            value = busy.get(layer_fn, 0.0) / n_passes
        elif kind == "self_s":
            value = own.get(layer_fn, 0.0) / n_passes
        else:
            raise KeyError(metric)
        out[metric] = (value, UNITS[kind])
    return out


def write_spans(path, span_list):
    with open(path, "w", encoding="utf-8") as handle:
        for s in span_list:
            handle.write(json.dumps(s[:4]) + "\n")


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")


def run(workload, seed, seconds, trace, scale=1.0, out_dir=None):
    """One benchmark run; returns the result object printed as the last line."""
    workdir = work_dir(workload, seed)
    try:
        setup_times = timed_setups(workload, seed)
        api, jobs = setup(workload, seed, workdir, scale)
        outcomes = Outcomes(jobs)
        tracer = spans.Tracer() if trace else None
        passes, traced, latencies, traced_latencies = measure(
            api, jobs, seconds, outcomes, tracer)
        metrics, pct = end_to_end(setup_times, passes, latencies)
        print(f"# {workload} seed={seed}: {len(jobs)} jobs per pass, "
              f"{len(passes) + len(traced)} passes ({len(traced)} traced), "
              f"{outcomes.attempted} jobs run, {outcomes.failed} failed "
              f"(fail_ratio {outcomes.failed / outcomes.attempted:.4f}); "
              f"op_tail_ms is p{pct} of {len(jobs)} per-job medians")
        print("# pass times (s): " + " ".join(f"{t:.3f}" for t in passes))
        print_metrics(metrics)
        if trace:
            print("# traced pass times (s): " + " ".join(f"{t:.3f}" for t in traced))
            overhead = trace_overhead(latencies, traced_latencies)
            metrics = layer_metrics(tracer.spans, len(traced), overhead)
            if out_dir:
                os.makedirs(out_dir, exist_ok=True)
                write_spans(os.path.join(out_dir, f"spans_{workload}_{seed}.jsonl"),
                            tracer.spans[:tracer.pass_ends[0]])
            print_metrics(metrics)
        for failure in outcomes.failures:
            print(f"# FAILED {failure}")
        return {
            "correct": outcomes.failed == 0,
            "attempted": outcomes.attempted,
            "failed": outcomes.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded benchmark for atomlat.")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit; the runner times this for setup_s")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")
    if not os.path.isfile(os.path.join(SRC, "atomlat", "__init__.py")):
        print(f"error: no atomlat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        setup_once(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace,
                 out_dir=os.path.join(ROOT, ".bench_out") if args.trace else None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
