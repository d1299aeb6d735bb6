"""The benchmark's own tests: tiny smoke runs, failure counting, tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans
import workloads

sys.path.insert(0, run.SRC)

TINY = 0.1
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture
def scratch_dir(request):
    """A directory inside the checkout, removed after the test."""
    path = os.path.join(run.ROOT, ".bench_work", "test_" + request.node.name.replace("/", "_"))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_run(workload, trace=0, seed=3):
    return run.run(workload, seed, 0.01, trace, scale=TINY)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(workload):
    result = tiny_run(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(BENCHMARK_JSON) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_same_inputs(workload, scratch_dir):
    golden = workloads.load_golden(run.GOLDEN)

    def files():
        out = {}
        for name in os.listdir(scratch_dir):
            with open(os.path.join(scratch_dir, name)) as handle:
                out[name] = handle.read()
        return out

    first = workloads.generate(workload, 7, scratch_dir, golden, TINY)
    contents = files()
    second = workloads.generate(workload, 7, scratch_dir, golden, TINY)
    assert first == second and contents == files()
    other = workloads.generate(workload, 8, scratch_dir, golden, TINY)
    assert other != first


def corrupting(kind):
    """A run_job that damages the output of every job with the given check."""
    original = run.run_job

    def damaged(api, job):
        rc, out = original(api, job)
        if job["check"] == kind:
            if kind == "query":
                out = "negative\n" if out.strip() == "positive" else "positive\n"
            elif kind == "build":
                doc = json.loads(out)
                doc["atoms"] = doc["atoms"][1:]
                out = json.dumps(doc)
            elif kind == "axioms":
                rc = 2
        return rc, out

    return damaged


@pytest.mark.parametrize("workload,kind", [("query", "query"), ("build", "build"),
                                          ("theory", "axioms")])
def test_wrong_output_counts_as_failed(monkeypatch, workload, kind):
    monkeypatch.setattr(run, "run_job", corrupting(kind))
    result = tiny_run(workload)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_checks_reject_a_redundant_atom():
    names = ("a", "b")
    spec = {"constants": names, "asserts": [], "denies": [],
            "digest": checks.digest(names, [1, 2])}
    assert checks.check_build(workloads.model_text(names, [1, 2]), spec) is None
    assert "union" in checks.check_build(workloads.model_text(names, [1, 2, 3]), spec)


def test_traced_run_reports_every_per_layer_metric():
    with open(BENCHMARK_JSON) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    seen = {}
    for workload in workloads.WORKLOADS:
        result = tiny_run(workload, trace=1)
        assert result["correct"]
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == declared
        seen[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert seen["build"]["crossing.full_crossing.calls"] > 0
    assert 0 < seen["build"]["model.reduce.kept_ratio"] <= 1
    assert seen["theory"]["model.enumerate_theory.busy_s"] > 0
    assert seen["theory"]["oracle.closure_oracle.pairs_out"] > 0
    assert seen["query"]["model.holds.calls"] > 0
    for op in spans.TRACED["algebra"]:
        assert seen["algebra"][f"algebra.{op}.busy_s"] > 0


def test_self_times_of_a_job_add_up_to_its_duration(scratch_dir):
    api, jobs = run.setup("algebra", 5, scratch_dir, TINY)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for job in jobs:
            tracer.call("bench.job", run.run_job, api, job)
    finally:
        tracer.uninstall()
    selfs = spans.self_times(tracer.spans)
    roots = [i for i, s in enumerate(tracer.spans) if s[spans.PARENT] < 0]
    owner = list(range(len(tracer.spans)))
    for i, s in enumerate(tracer.spans):
        if s[spans.PARENT] >= 0:
            owner[i] = owner[s[spans.PARENT]]
    for root in roots:
        span = tracer.spans[root]
        total = sum(t for i, t in enumerate(selfs) if owner[i] == root)
        assert total == pytest.approx(span[spans.END] - span[spans.START], rel=1e-9, abs=1e-12)
        assert all(t >= -1e-9 for i, t in enumerate(selfs) if owner[i] == root)
    assert api.cli.main is not None and not hasattr(api.cli.main, "__wrapped__")


def test_fails_without_a_result_outside_a_checkout(scratch_dir):
    shutil.copy(BENCHMARK_JSON, os.path.join(scratch_dir, "BENCHMARK.json"))
    shutil.copytree(run.HERE, os.path.join(scratch_dir, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch_dir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
