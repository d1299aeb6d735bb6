"""Record the reference outputs the benchmark checks against (golden.json).

Run once per change of the pools, from the repository root:

    python3 perfbench/record.py            # rewrite perfbench/golden.json
    python3 perfbench/record.py --trajectory 17   # atom counts of build entry 17

Reference outputs come from the plain reference path (``full_crossing`` then
``reduce`` after each sentence) and, for ``theory``, from ``closure_oracle``.
At n <= 10, ``quotient`` results are cross-checked with ``closure_oracle``
too. The benchmark's own recomputations are checked here as well, so a bug
in them shows before any run. Each entry also gets a ``cost``: its time
on the recording machine, which runs use to sort a pool into slices. For
entries a run can draw it is the median of COST_ROUNDS round-robin passes
over the pool, so that a slow phase of the machine lands on every entry
alike: the time of the build job, of the three theory jobs, of the
shared-constant join for algebra (it sets the tail), and of the set-up
build for query models.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as W  # noqa: E402
from atomlat import (  # noqa: E402
    Atom, Duple, Signature, Term, axiom_check, closure_oracle, full_crossing, new_model, reduce,
)
from atomlat import algebra, cli, serialize  # noqa: E402

COST_ROUNDS = 5


def reference_build(e, on_step=None):
    """Cross the asserts in order, reducing after each; returns (masks, peak)."""
    sig = Signature(tuple(e["names"]))
    start = e["atoms"] or [1 << i for i in range(len(sig))]
    model = new_model(sig, (Atom(m) for m in start))
    peak = len(model.atoms)
    for step, (left, right) in enumerate(e["asserts"]):
        before = len(model.atoms)
        t0 = time.perf_counter()
        crossed = full_crossing(model, Duple(Term(left), Term(right)))
        t1 = time.perf_counter()
        model = reduce(crossed)
        t2 = time.perf_counter()
        peak = max(peak, len(crossed.atoms))
        if on_step:
            on_step(step, before, len(crossed.atoms), len(model.atoms), t1 - t0, t2 - t1)
    return [a.mask for a in model.atoms], peak


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def median_costs(jobs):
    """Median run time of each job over COST_ROUNDS round-robin passes."""
    samples = {key: [] for key in jobs}
    for _ in range(COST_ROUNDS):
        for key, job in jobs.items():
            t0 = time.perf_counter()
            job()
            samples[key].append(time.perf_counter() - t0)
    return {key: round(statistics.median(times), 4) for key, times in samples.items()}


def cli_job(*argvs):
    return lambda: [run_cli(argv) for argv in argvs]


def record_build(workdir):
    rec, drawable = {}, {}
    for i in range(W.BUILD_POOL):
        e = W.build_entry(i)
        t0 = time.perf_counter()
        masks, peak = reference_build(e)
        cost = time.perf_counter() - t0
        denies = [d for d in e["deny_candidates"] if not checks.holds(masks, *d)][:2]
        if peak < W.BUILD_PEAK_CAP:
            # Drawable entries are ordered by the job itself.
            script = os.path.join(workdir, f"build_{i}.al")
            with open(script, "w") as handle:
                handle.write(W.script_text(e["names"], e["asserts"], e["atoms"], denies))
            drawable[str(i)] = cli_job(["build", script])
        rec[str(i)] = {"peak": peak, "cost": round(cost, 4), "denies": denies,
                       "digest": checks.digest(e["names"], masks)}
    for key, cost in median_costs(drawable).items():
        rec[key]["cost"] = cost
    return rec


def oracle_rows(relation):
    rows = {}
    for d in relation:
        rows.setdefault(d.left.mask, set()).add(d.right.mask)
    return rows


def record_theory(workdir):
    rec, drawable = {}, {}
    for i in range(W.THEORY_POOL):
        e = W.theory_entry(i)
        names = e["names"]
        sig = Signature(tuple(names))
        relation = closure_oracle(sig, [Duple(Term(l), Term(r)) for l, r in e["asserts"]])
        verdicts, rc = [], 0
        for l, r in e["denies"]:
            entailed = Duple(Term(l), Term(r)) in relation
            rc = 1 if entailed else rc
            status = "ENTAILED-POSITIVE" if entailed else "SATISFIABLE"
            verdicts.append(f"deny {W.names_of(l, names)} <= {W.names_of(r, names)}: {status}")
        lines = checks.theory_lines(names, oracle_rows(relation))
        script = os.path.join(workdir, f"theory_{i}.al")
        with open(script, "w") as handle:
            handle.write(W.script_text(names, e["asserts"], denies=e["denies"],
                                       shows=("elements", "theory")))
        t0 = time.perf_counter()
        got_rc, out = run_cli(["check", "--oracle", script])
        cost = time.perf_counter() - t0
        spec = {"verdict_lines": verdicts, "theory_digest": checks.text_digest("\n".join(lines)),
                "digest": checks.text_digest(out)}
        problem = checks.check_theory_check(out, spec)
        if problem or got_rc != rc:
            raise SystemExit(f"theory entry {i}: reference disagrees with the oracle: {problem}")
        plain = os.path.join(workdir, f"theory_{i}_sentences.al")
        with open(plain, "w") as handle:
            handle.write(W.script_text(names, e["asserts"]))
        model = os.path.join(workdir, f"theory_{i}.json")
        run_cli(["build", plain, "-o", model])
        t0 = time.perf_counter()
        _, dot = run_cli(["export", "--dot", model])
        with open(model) as handle:
            axioms_ok = axiom_check(serialize.model_from_json(handle.read())).ok
        cost += time.perf_counter() - t0
        if not axioms_ok:
            raise SystemExit(f"theory entry {i}: axiom_check fails on the built model")
        rec[str(i)] = {"rc": rc, "check": spec, "dot_digest": checks.text_digest(dot),
                       "cost": round(cost, 4), "positives": len(relation)}
        if W.theory_drawable(len(names), len(relation)):
            drawable[str(i)] = theory_job(script, model)
    for key, cost in median_costs(drawable).items():
        rec[key]["cost"] = cost
    return rec


def theory_job(script, model):
    def job():
        run_cli(["check", "--oracle", script])
        run_cli(["export", "--dot", model])
        with open(model) as handle:
            axiom_check(serialize.model_from_json(handle.read()))
    return job


def theory_generators(sig, masks):
    """Sentences c <= t for every constant c and term t above it in the model."""
    out = []
    for c in range(len(sig)):
        for t in range(1, sig.full_mask + 1):
            if checks.holds(masks, 1 << c, t):
                out.append(Duple(Term(1 << c), Term(t)))
    return out


def record_algebra(workdir):
    rec, joins = {}, {}
    for i in range(W.ALGEBRA_POOL):
        e = W.algebra_entry(i)
        files = {}
        for key in ("m", "o", "d", "p"):
            files[key] = os.path.join(workdir, f"algebra_{i}_{key}.json")
            with open(files[key], "w") as handle:
                handle.write(W.model_text(e[key + "_names"], e[key]))
        m = serialize.model_from_json(W.model_text(e["m_names"], e["m"]))
        entry = {}
        for name, call, constants, extra in W.algebra_jobs(e):
            if isinstance(call, dict):
                gens = [m.sig.term(text) for text in call["gens"]]
                out = serialize.model_to_json(
                    algebra.subalgebra(m, gens, call["names"], route="crossing"))
                rc = 0
            else:
                argv = [files.get(x, x) for x in call]
                rc, out = run_cli(argv)
            if name == "join_shared":
                joins[str(i)] = cli_job(argv)
            spec = dict(extra, constants=constants)
            if constants is not None:
                names, masks = checks.parse_model(out)
                spec["digest"] = entry[name] = checks.digest(names, masks)
            check = checks.check_algebra_json if constants is None else checks.check_algebra_model
            problem = "exit code %d" % rc if rc else check(out, spec)
            if problem:
                raise SystemExit(f"algebra entry {i} job {name}: {problem}")
            if name == "quotient" and len(m.sig) <= 10:
                a, b = e["quotient"]
                sentences = theory_generators(m.sig, e["m"]) + [
                    Duple(Term(a), Term(b)), Duple(Term(b), Term(a))]
                relation = closure_oracle(m.sig, sentences)
                full = m.sig.full_mask
                own = {(s, t) for s in range(1, full + 1) for t in range(1, full + 1)
                       if checks.holds(masks, s, t)}
                if own != {(d.left.mask, d.right.mask) for d in relation}:
                    raise SystemExit(f"algebra entry {i}: quotient disagrees with the oracle")
        rec[str(i)] = entry
    for key, cost in median_costs(joins).items():
        rec[key]["cost"] = cost
    return rec


def record_query(workdir):
    rec, builds = {}, {}
    for i in range(W.QUERY_POOL):
        e = W.query_entry(i)
        script = os.path.join(workdir, f"query_{i}.al")
        model = os.path.join(workdir, f"query_{i}.json")
        with open(script, "w") as handle:
            handle.write(W.script_text(e["names"], e["asserts"]))
        policy = ["--reduce", "never"] if e["unreduced"] else []
        argv = ["build", script, "-o", model] + policy
        rc, _ = run_cli(argv)
        with open(model) as handle:
            names, masks = checks.parse_model(handle.read())
        if rc or (not e["unreduced"] and checks.own_reduce(masks) != sorted(masks)):
            raise SystemExit(f"query entry {i}: bad stored model")
        rec[str(i)] = {"atoms": len(masks), "digest": checks.digest(names, masks)}
        builds[str(i)] = cli_job(argv)
    for key, cost in median_costs(builds).items():
        rec[key]["cost"] = cost
    return rec


def trajectory(i):
    e = W.build_entry(i)
    print(f"build entry {i}: n={len(e['names'])} asserts={len(e['asserts'])} "
          f"explicit_atoms={len(e['atoms'])}")
    print("step atoms_before atoms_crossed atoms_reduced crossing_s reduce_s")

    def show(step, before, crossed, reduced, tc, tr):
        if crossed != before or reduced != crossed:
            print(f"{step} {before} {crossed} {reduced} {tc:.4f} {tr:.4f}")

    t0 = time.perf_counter()
    reference_build(e, show)
    print(f"total_s {time.perf_counter() - t0:.3f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trajectory", type=int, metavar="INDEX",
                        help="print the atom counts of one build pool entry and exit")
    args = parser.parse_args()
    if args.trajectory is not None:
        trajectory(args.trajectory)
        return
    workdir = os.path.join(os.path.dirname(HERE), ".bench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        golden = {"build": record_build(workdir), "theory": record_theory(workdir),
                  "algebra": record_algebra(workdir), "query": record_query(workdir)}
    finally:
        shutil.rmtree(workdir)
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
