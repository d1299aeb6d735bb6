"""Workload definitions and the seeded input generator.

Every job's inputs are files written here before timing starts; the package
under test sees only those files (and, for the two library jobs, the model
read back from them). ``build``, ``theory`` and ``algebra`` draw their cases
from fixed pools: pool entry ``i`` is generated from the string seed
``"<workload>:<i>"``, so its reference output could be recorded once
(``golden.json``, written by ``record.py``) and checked on any run seed. The
run seed picks which entries a run uses and in which order. ``query``
generates everything from the run seed; its answers are recomputed by the
benchmark itself.

Why each workload exists (the per-layer metrics each should move are listed
in NOTES.md):

- build: ``atomlat build`` (``after_each``) on sentence-only scripts is the
  main use of the library. ``reduce`` takes 93-99 % of build time and the
  per-script cost follows the pre-reduction peak atom count, so jobs are
  drawn in fixed numbers per peak-atom band. About one script in four starts
  from explicit, unreduced ``atom`` lines, an input property a fused
  cross-and-reduce path has to detect rather than assume.
- theory: scripts at the top of the enumeration range with ``show elements``,
  ``show theory`` and ``deny`` lines through ``check --oracle``, library
  ``axiom_check`` on the built models and ``export --dot``. Enumerations,
  oracles and output dominate and crossing is negligible: this workload
  should not move when crossing gets faster, and must move when the theory
  representation changes.
- algebra: the structural constructions on seeded model documents. ``join``,
  ``quotient`` and the crossing route of ``subalgebra`` run chains of
  ``full_crossing`` on unreduced atom sets, a different use of the crossing
  layer than ``build``; ``rename``, ``restrict``, ``product`` and the rename
  route exercise the atom-image loops.
- query: a stream of ``atomlat query`` jobs against stored models, reduced
  ones and larger unreduced ones. Entailment is the most common user call;
  its path (JSON read, model construction, ``holds``) is under 1 % of every
  other workload, so a cost added to the read path shows only here.
"""

from __future__ import annotations

import json
import os
import random

import checks

WORKLOADS = ("build", "theory", "algebra", "query")

# Pool sizes and how many entries one run draws. Each run sorts the
# eligible entries of a pool by the cost recorded once in golden.json
# (reference time on the recording machine, used only for its order), cuts
# them into as many equal slices as it draws jobs, and draws one entry per
# slice: every seed gets a different job list with the same spread of job
# sizes. build entries whose recorded pre-reduction peak reaches
# BUILD_PEAK_CAP atoms are never drawn, because single jobs there take
# seconds (see NOTES.md).
BUILD_POOL = 300
BUILD_PEAK_CAP = 800
BUILD_JOBS = 40
THEORY_POOL = 120
THEORY_PER_N = {8: 2, 7: 3}
# theory cost follows the number of positive pairs printed and derived by
# the oracle; only scripts whose positives make up this share of all
# (2^n - 1)^2 pairs are drawn, so that one script cannot double a pass.
THEORY_POSITIVE_SHARE = (0.43, 0.70)
ALGEBRA_POOL = 80
ALGEBRA_CASES = 20
# algebra cases are ordered by the recorded time of their shared-constant
# join, the job that varies most between cases and sets the tail. Cases
# whose join takes this many seconds (over a thousand atoms) are never
# drawn: one of them outweighs the rest of the pass.
ALGEBRA_COST_CAP = 0.25
# query: stored models come from a pool of scripts, the first half built
# reduced, the second half with --reduce never. Set-up builds them, so they
# are drawn in slices of their recorded build time. Reduced models whose
# build takes QUERY_BUILD_CAP seconds or more are never drawn: their build
# times spread over a factor of three, and one of them in a draw would make
# set-up time follow the seed. Unreduced models are drawn among those with
# QUERY_UNREDUCED_ATOMS atoms.
QUERY_POOL = 80
QUERY_REDUCED = 6
QUERY_UNREDUCED = 2
QUERY_BUILD_CAP = 0.04
QUERY_UNREDUCED_ATOMS = (200, 350)
QUERY_JOBS = 600


def names_of(mask, names):
    return " ".join(names[i] for i in range(len(names)) if mask >> i & 1)


def random_term(rng, n, max_side=3):
    mask = 0
    for _ in range(rng.randint(1, max_side)):
        mask |= 1 << rng.randrange(n)
    return mask


def random_atoms(rng, n, low, high):
    """low to high random atoms of 1 to 3 constants, plus singletons for
    any constant left uncovered."""
    masks = {random_term(rng, n) for _ in range(rng.randint(low, high))}
    covered = 0
    for m in masks:
        covered |= m
    masks.update(1 << i for i in range(n) if not covered >> i & 1)
    return sorted(masks)


def script_text(names, asserts, atoms=(), denies=(), shows=()):
    lines = ["constants " + " ".join(names)]
    lines += ["atom " + names_of(a, names) for a in atoms]
    lines += [f"assert {names_of(l, names)} <= {names_of(r, names)}" for l, r in asserts]
    lines += ["show " + s for s in shows]
    lines += [f"deny {names_of(l, names)} <= {names_of(r, names)}" for l, r in denies]
    return "\n".join(lines) + "\n"


def model_text(names, masks):
    doc = {"constants": list(names), "atoms": [names_of(m, names).split() for m in masks]}
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------- pools


def build_entry(i):
    """n = 13-18 constants, 2n-4n random_duple asserts (sides <= 3)."""
    rng = random.Random(f"build:{i}")
    n = rng.randint(13, 18)
    names = [f"c{j}" for j in range(n)]
    atoms = ()
    if rng.random() < 0.25:
        base = random_atoms(rng, n, n, n)
        unions = {base[rng.randrange(len(base))] | base[rng.randrange(len(base))]
                  for _ in range(n // 3)}
        atoms = sorted(set(base) | unions)
    asserts = [(random_term(rng, n), random_term(rng, n)) for _ in range(rng.randint(2 * n, 4 * n))]
    deny_candidates = [(random_term(rng, n, 2), random_term(rng, n, 2)) for _ in range(6)]
    return {"names": names, "atoms": atoms, "asserts": asserts, "deny_candidates": deny_candidates}


def theory_entry(i):
    """n = 8 for the first half of the pool, 7 for the rest; n to 2n asserts."""
    rng = random.Random(f"theory:{i}")
    n = 8 if i < THEORY_POOL // 2 else 7
    names = [f"t{j}" for j in range(n)]
    asserts = [(random_term(rng, n), random_term(rng, n)) for _ in range(rng.randint(n, 2 * n))]
    denies = [(random_term(rng, n, 2), random_term(rng, n, 2)) for _ in range(3)]
    return {"names": names, "asserts": asserts, "denies": denies}


def query_entry(i):
    """Reduced half: n = 12-15, 2n-3n asserts. Unreduced half: n = 12, 10-12 asserts."""
    rng = random.Random(f"query:{i}")
    unreduced = i >= QUERY_POOL // 2
    n = 12 if unreduced else rng.randint(12, 15)
    names = [f"q{j}" for j in range(n)]
    count = rng.randint(10, 12) if unreduced else rng.randint(2 * n, 3 * n)
    asserts = [(random_term(rng, n), random_term(rng, n)) for _ in range(count)]
    return {"names": names, "asserts": asserts, "unreduced": unreduced}


def algebra_entry(i):
    """A model m over 8-13 constants plus the operands and arguments of each op."""
    rng = random.Random(f"algebra:{i}")
    nm = rng.randint(8, 13)
    m_names = [f"m{j}" for j in range(nm)]
    m = random_atoms(rng, nm, nm, 2 * nm)
    shared = rng.sample(m_names, rng.randint(5, 6))
    o_names = shared + [f"o{j}" for j in range(rng.randint(3, 6))]
    o = random_atoms(rng, len(o_names), len(o_names), 2 * len(o_names))
    d_names = [f"d{j}" for j in range(rng.randint(3, 5))]
    d = random_atoms(rng, len(d_names), 2, len(d_names))
    p_names = [rng.choice(m_names), "p0", "p1"]
    p = random_atoms(rng, 3, 2, 4)
    quotient = (1 << rng.randrange(nm), random_term(rng, nm, 2))
    gens = [random_term(rng, nm, 3) for _ in range(rng.randint(3, 4))]
    targets = [f"r{j}" for j in range(max(2, nm // 2))]
    rmap = {name: sorted(rng.sample(targets, rng.randint(1, 2))) for name in m_names}
    keep = sorted(rng.sample(range(nm), nm // 2))
    return {
        "m_names": m_names, "m": m, "o_names": o_names, "o": o,
        "d_names": d_names, "d": d, "p_names": p_names, "p": p,
        "quotient": quotient, "gens": gens, "targets": targets,
        "rmap": rmap, "keep": keep,
    }


# ------------------------------------------------------- own recomputations


def canonical(masks):
    """The package's documented output order: by sorted index list."""
    return sorted(set(masks), key=lambda m: [i for i in range(m.bit_length()) if m >> i & 1])


def product_masks(m, nm, p, np_):
    rows = [sum(1 << (i * np_ + j) for j in range(np_)) for i in range(nm)]
    cols = [sum(1 << (i * np_ + j) for i in range(nm)) for j in range(np_)]
    return {checks.image(a, rows) for a in m} | {checks.image(a, cols) for a in p}


def decompose_doc(names, masks):
    full = (1 << len(names)) - 1
    picked = [a for a in canonical(checks.own_reduce(masks)) if a != full]
    comps = [
        {"atom": names_of(a, names).split(), "top": f"z{k + 1}", "bottom": f"zb{k + 1}"}
        for k, a in enumerate(picked)
    ]
    gens = {
        name: [f"z{k + 1}" if a >> i & 1 else f"zb{k + 1}" for k, a in enumerate(picked)]
        for i, name in enumerate(names)
    }
    return {"constants": list(names), "components": comps, "generators": gens}


def embed_doc(names, masks):
    atoms = canonical(masks)
    return {
        "constants": [f"z{k + 1}" for k in range(len(atoms))],
        "generators": {
            name: [f"z{k + 1}" for k, a in enumerate(atoms) if a >> i & 1]
            for i, name in enumerate(names)
        },
    }


def algebra_jobs(e):
    """(name, argv-or-library-spec, expected constants, extra check data)."""
    mn, on, dn, pn = e["m_names"], e["o_names"], e["d_names"], e["p_names"]
    nm = len(mn)
    a, b = e["quotient"]
    gen_texts = [names_of(g, mn) for g in e["gens"]]
    gen_names = [f"g{k}" for k in range(len(gen_texts))]
    sub_images = [sum(1 << k for k, g in enumerate(e["gens"]) if g >> i & 1) for i in range(nm)]
    sub_exact = checks.expected_image(e["m"], sub_images, gen_names)
    keep_names = [mn[i] for i in e["keep"]]
    keep_images = [1 << e["keep"].index(i) if i in e["keep"] else 0 for i in range(nm)]
    tg = e["targets"]
    rename_images = [sum(1 << tg.index(t) for t in e["rmap"][name]) for name in mn]
    pairs = [(x, y) for x in mn for y in pn]
    grid = [f"{x}*{y}" for x, y in pairs]
    diag = [x if x == y else f"{x}*{y}" for x, y in pairs]
    prod = product_masks(e["m"], nm, e["p"], len(pn))
    join_names = mn + [x for x in on if x not in mn]
    d_shift = {x << nm for x in e["d"]}
    rmap_json = json.dumps({"map": e["rmap"], "targets": tg})
    return [
        ("join_shared", ["join", "m", "o"], join_names, {}),
        ("join_disjoint", ["join", "m", "d"], mn + dn, {"exact": sorted(set(e["m"]) | d_shift)}),
        ("quotient", ["quotient", "m", names_of(a, mn), names_of(b, mn)], mn,
         {"equal": [[a, b]]}),
        ("subalgebra_rename", ["subalgebra", "m", "--gen", *gen_texts, "--names", *gen_names],
         gen_names, {"exact": sorted(sub_exact)}),
        ("subalgebra_crossing", {"gens": gen_texts, "names": gen_names}, gen_names,
         {"reduced_exact": checks.own_reduce(sub_exact)}),
        ("product", ["product", "m", "p"], grid, {"exact": sorted(prod)}),
        ("product_diagonal", ["product", "m", "p", "--identify-diagonal"], diag,
         {"exact": sorted(prod)}),
        ("rename", ["rename", "m", "--map", rmap_json], tg,
         {"exact": sorted(checks.expected_image(e["m"], rename_images, tg))}),
        ("restrict", ["restrict", "m", "--keep", *keep_names], keep_names,
         {"exact": sorted(checks.expected_image(e["m"], keep_images, keep_names))}),
        ("decompose", ["decompose", "m"], None, {"doc": decompose_doc(mn, e["m"])}),
        ("embed_free", ["embed-free", "m"], None, {"doc": embed_doc(mn, e["m"])}),
    ]


# ------------------------------------------------------------ generation


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def stratified(rng, rec, indices, count):
    """Pool indices: one random entry from each of ``count`` equal slices of
    ``indices`` sorted by recorded cost."""
    ordered = sorted(indices, key=lambda i: (rec[str(i)]["cost"], i))
    if len(ordered) < count:
        raise ValueError("pool too small for the requested draw")
    edges = [round(k * len(ordered) / count) for k in range(count + 1)]
    return [ordered[rng.randrange(edges[k], edges[k + 1])] for k in range(count)]


def gen_build(rng, workdir, golden, scale):
    rec = golden["build"]
    eligible = [int(i) for i, r in rec.items() if r["peak"] < BUILD_PEAK_CAP]
    chosen = stratified(rng, rec, eligible, max(1, round(BUILD_JOBS * scale)))
    rng.shuffle(chosen)
    jobs = []
    for i in chosen:
        e, r = build_entry(i), rec[str(i)]
        path = os.path.join(workdir, f"build_{i}.al")
        _write(path, script_text(e["names"], e["asserts"], e["atoms"], r["denies"]))
        spec = {"constants": e["names"], "asserts": e["asserts"], "denies": r["denies"],
                "digest": r["digest"]}
        jobs.append({"id": f"build_{i}", "kind": "cli", "argv": ["build", path],
                     "rc": 0, "check": "build", "spec": spec})
    return jobs, []


def theory_drawable(n, positives):
    low, high = THEORY_POSITIVE_SHARE
    return low <= positives / (2 ** n - 1) ** 2 <= high


def gen_theory(rng, workdir, golden, scale):
    rec = golden["theory"]
    chosen = []
    for n, count in THEORY_PER_N.items():
        members = [i for i in range(THEORY_POOL) if len(theory_entry(i)["names"]) == n
                   and theory_drawable(n, rec[str(i)]["positives"])]
        chosen += stratified(rng, rec, members, max(1, round(count * scale)))
    rng.shuffle(chosen)
    jobs, builds = [], []
    for i in chosen:
        e, r = theory_entry(i), rec[str(i)]
        script = os.path.join(workdir, f"theory_{i}.al")
        plain = os.path.join(workdir, f"theory_{i}_sentences.al")
        model = os.path.join(workdir, f"theory_{i}.json")
        _write(script, script_text(e["names"], e["asserts"], denies=e["denies"],
                                   shows=("elements", "theory")))
        _write(plain, script_text(e["names"], e["asserts"]))
        builds.append(["build", plain, "-o", model])
        jobs += [
            {"id": f"check_{i}", "kind": "cli", "argv": ["check", "--oracle", script],
             "rc": r["rc"], "check": "theory_check", "spec": r["check"]},
            {"id": f"axioms_{i}", "kind": "axioms", "path": model,
             "rc": 0, "check": "axioms", "spec": {}},
            {"id": f"dot_{i}", "kind": "cli", "argv": ["export", "--dot", model],
             "rc": 0, "check": "text", "spec": {"digest": r["dot_digest"]}},
        ]
    return jobs, builds


def gen_algebra(rng, workdir, golden, scale):
    rec = golden["algebra"]
    eligible = [i for i in range(ALGEBRA_POOL) if rec[str(i)]["cost"] < ALGEBRA_COST_CAP]
    chosen = stratified(rng, rec, eligible, max(1, round(ALGEBRA_CASES * scale)))
    jobs = []
    for i in chosen:
        e = algebra_entry(i)
        files = {}
        for key in ("m", "o", "d", "p"):
            files[key] = os.path.join(workdir, f"algebra_{i}_{key}.json")
            _write(files[key], model_text(e[key + "_names"], e[key]))
        for name, call, constants, extra in algebra_jobs(e):
            spec = dict(extra, constants=constants)
            if constants is not None:
                spec["digest"] = rec[str(i)][name]
            job = {"id": f"{name}_{i}", "rc": 0, "spec": spec,
                   "check": "doc" if constants is None else "model"}
            if isinstance(call, dict):
                job.update(kind="subalgebra_crossing", path=files["m"], **call)
            else:
                job.update(kind="cli", argv=[files.get(x, x) for x in call])
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs, []


def gen_query(rng, workdir, golden, scale):
    rec = golden["query"]
    low, high = QUERY_UNREDUCED_ATOMS
    reduced = [i for i in range(QUERY_POOL // 2) if rec[str(i)]["cost"] < QUERY_BUILD_CAP]
    unreduced = [i for i in range(QUERY_POOL // 2, QUERY_POOL)
                 if low <= rec[str(i)]["atoms"] <= high]
    chosen = (stratified(rng, rec, reduced, QUERY_REDUCED)
              + stratified(rng, rec, unreduced, QUERY_UNREDUCED))
    builds, models = [], []
    for i in chosen:
        e = query_entry(i)
        script = os.path.join(workdir, f"query_{i}.al")
        model = os.path.join(workdir, f"query_{i}.json")
        _write(script, script_text(e["names"], e["asserts"]))
        argv = ["build", script, "-o", model]
        builds.append(argv + (["--reduce", "never"] if e["unreduced"] else []))
        models.append((model, e["names"], rec[str(i)]["digest"]))
    jobs = []
    for j in range(max(len(models), round(QUERY_JOBS * scale))):
        model, names, digest = models[j % len(models)]
        n = len(names)
        left, right = random_term(rng, n, 2), random_term(rng, n, 4)
        text = f"{names_of(left, names)} <= {names_of(right, names)}"
        jobs.append({"id": f"query_{j}", "kind": "cli", "argv": ["query", model, text],
                     "rc": 0, "check": "query",
                     "spec": {"model": model, "model_digest": digest,
                              "left": left, "right": right}})
    rng.shuffle(jobs)
    return jobs, builds


GENERATORS = {"build": gen_build, "theory": gen_theory, "algebra": gen_algebra, "query": gen_query}


def generate(workload, seed, workdir, golden, scale=1.0):
    """Write the job files for one run; returns (jobs, setup builds).

    Setup builds are CLI argument lists that produce stored models the jobs
    read; the runner executes them before timing starts.
    """
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(workdir, exist_ok=True)
    return GENERATORS[workload](rng, workdir, golden, scale)


def load_golden(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
