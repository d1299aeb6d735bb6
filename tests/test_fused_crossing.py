"""Seeded differential tests of the fast paths against their references.

- ``fused_crossing`` against ``reduce(full_crossing(m, r))`` on reduced models,
  and on the duples with one atom below the right term, which add no atom;
- the unions it skips for a non-minimal trace against ``is_redundant`` on the
  whole union grid;
- the live ``AtomColumns`` of a chain against a fresh index of its atoms;
- the column-bitset ``reduce`` against the pairwise ``is_redundant`` definition;
- ``cross_positives``, ``cross_runs``, ``run_script`` and ``freest_model``
  under ``after_each`` against a step-by-step loop of ``full_crossing`` and
  ``reduce``, one-duple runs and shows included, and ``run_script`` under
  ``never`` against the same loop without ``reduce``;
- the scheduled chain against the script order, against ``reduce`` of a
  ``never`` chain, and against itself on permutations of its duples.
"""

import io

import pytest

from atomlat import crossing
from atomlat.core import Atom, Duple, Signature, Term
from atomlat.crossing import (
    cross_positives,
    cross_runs,
    freest_model,
    full_crossing,
    fused_crossing,
)
from atomlat.errors import SignatureMismatch
from atomlat.model import AtomColumns, Model, holds, is_redundant, new_model, reduce
from atomlat.script import Assertion, ShowDirective, parse_script, run_script

from conftest import discriminant, lower_atomic_segment, random_duple, random_term, seeded, valid


def sig_of_size(n):
    return Signature(tuple(f"c{i}" for i in range(n)))


def covered_masks(rng, n, count):
    masks = {random_term(rng, n, rng.randint(1, n)).mask for _ in range(count)}
    covered = 0
    for mask in masks:
        covered |= mask
    masks.update(1 << i for i in range(n) if not covered >> i & 1)
    return masks


def random_reduced_model(rng, n):
    sig = sig_of_size(n)
    return reduce(new_model(sig, map(Atom, covered_masks(rng, n, rng.randint(1, 3 * n)))))


def reference_reduce(model):
    return Model(model.sig, tuple(a for a in model.atoms if not is_redundant(model, a)))


def test_fused_matches_reference_on_random_reduced_models():
    rng = seeded(2024)
    already_held = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        m = random_reduced_model(rng, n)
        if rng.random() < 0.3:
            left = random_term(rng, n)
            r = Duple(left, left.join(random_term(rng, n)))
        else:
            r = random_duple(rng, n)
        fused, full = fused_crossing(m, r), full_crossing(m, r)
        assert valid(fused) and valid(full)
        assert fused == reduce(full)
        if holds(m, r):
            already_held += 1
            assert fused is m
    assert already_held >= 900


def test_fused_matches_reference_along_freest_builds():
    rng = seeded(2025)
    for _ in range(200):
        n = rng.randint(2, 12)
        sig = sig_of_size(n)
        m = new_model(sig, (Atom(1 << i) for i in range(n)))
        for _ in range(rng.randint(1, 3 * n)):
            r = random_duple(rng, n)
            full = full_crossing(m, r)
            expected = reduce(full)
            fused = fused_crossing(m, r)
            assert valid(full) and valid(fused)
            assert fused == expected
            m = expected


def test_one_atom_below_adds_no_atom():
    # With one atom b below the right term, each moved h becomes h | b: the
    # step can merge or drop atoms but never add one, which is why the
    # schedule crosses such duples first.
    rng = seeded(2032)
    one_below = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        m = random_reduced_model(rng, n)
        r = random_duple(rng, n)
        if len(lower_atomic_segment(m, r.right)) != 1 or holds(m, r):
            continue
        one_below += 1
        fused = fused_crossing(m, r)
        assert len(fused.atoms) <= len(m.atoms)
        assert fused == reduce(full_crossing(m, r))
    assert one_below >= 400


def minimal_masks(masks):
    return {m for m in masks if not any(o != m and o & ~m == 0 for o in masks)}


def test_skipped_unions_of_non_minimal_traces_are_redundant():
    rng = seeded(2029)
    skipped = mismatches = 0
    for _ in range(1500):
        n = rng.randint(2, 12)
        m = random_reduced_model(rng, n)
        r = random_duple(rng, n)
        full = full_crossing(m, r)
        below = minimal_masks({atom.mask for atom in lower_atomic_segment(m, r.right)})
        for h in (atom.mask for atom in discriminant(m, r.left, r.right)):
            traces = minimal_masks({b & ~h for b in below})
            for b in below:
                if b & ~h not in traces:
                    skipped += 1
                    mismatches += not is_redundant(full, Atom(h | b))
    assert mismatches == 0
    assert skipped >= 500


def test_live_columns_match_a_fresh_index():
    rng = seeded(2030)
    compacted = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        live = sorted(covered_masks(rng, n, rng.randint(1, 3 * n)))
        index = AtomColumns(live, n)
        for _ in range(rng.randint(1, 12)):
            if live and rng.random() < 0.5:
                gone = rng.sample(live, rng.randint(1, len(live)))
                positions = 0
                for mask in gone:
                    positions |= 1 << index.position[mask]
                slots = len(index.masks)
                index.drop(positions)
                compacted += len(index.masks) < slots
                live = [mask for mask in live if mask not in gone]
            else:
                fresh = list(covered_masks(rng, n, rng.randint(1, n)) - set(live))
                index.extend(fresh)
                live += fresh
            fresh_index = AtomColumns(live, n)
            assert sorted(index.masks_at(index.live)) == sorted(live)
            assert {m: index.masks[p] for m, p in index.position.items()} == {m: m for m in live}
            for term in (random_term(rng, n).mask for _ in range(4)):
                assert sorted(index.masks_at(index.meeting(term))) == sorted(
                    fresh_index.masks_at(fresh_index.meeting(term))
                )
            probes = live + [random_term(rng, n, n).mask for _ in range(4)]
            assert [index.redundant(x) for x in probes] == [
                fresh_index.redundant(x) for x in probes
            ]
    assert compacted >= 100


def random_chain(rng, n, steps):
    """Random duples mixed with ones that hold at every step: a left term
    inside the right one, or a repeat of an earlier duple."""
    duples = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            left = random_term(rng, n)
            duples.append(Duple(left, left.join(random_term(rng, n))))
        elif roll < 0.3 and duples:
            duples.append(rng.choice(duples))
        else:
            duples.append(random_duple(rng, n))
    return duples


def random_start(rng, n, kind):
    """A start over ``n`` constants: the free singletons, a random reduced
    model, a random model padded with unions, or a script's declared atoms."""
    sig = sig_of_size(n)
    if kind == "free":
        return freest_model(sig)
    if kind == "reduced":
        return random_reduced_model(rng, n)
    if kind == "unreduced":
        masks = covered_masks(rng, n, 2 * n)
        masks.update(rng.choice(sorted(masks)) | rng.choice(sorted(masks)) for _ in range(n))
        return new_model(sig, map(Atom, masks))
    return new_model(sig, random_script(rng, n, 0, declared=True).atoms())


START_KINDS = ["free", "reduced", "unreduced", "declared"]


@pytest.mark.parametrize("start_kind", START_KINDS)
def test_chain_matches_step_by_step_reference_at_every_step(start_kind, monkeypatch):
    compactions = 0
    load = AtomColumns._load

    def counting_load(index, masks):
        nonlocal compactions
        compactions += hasattr(index, "masks")
        load(index, masks)

    monkeypatch.setattr(AtomColumns, "_load", counting_load)
    rng = seeded(2031 + len(start_kind))
    held = mismatches = 0
    for _ in range(60):
        n = rng.randint(2, 12)
        start = random_start(rng, n, start_kind)
        duples = random_chain(rng, n, rng.randint(2 * n, 5 * n))
        seen = [start, *cross_runs(start, [(r,) for r in duples])]
        expected = [start]
        for r in duples:
            held += holds(expected[-1], r)
            expected.append(reduce(full_crossing(expected[-1], r)))
        mismatches += seen != expected
        assert seen[-1] == cross_positives(start, duples)
        assert all(valid(m) for m in seen)
    assert mismatches == 0
    assert held >= 500
    assert compactions >= 100


@pytest.mark.parametrize("start_kind", START_KINDS)
def test_scheduled_chain_matches_script_order_and_permutations(start_kind):
    # The reduced freest model is the unique non-redundant atomization of the
    # start's theory plus the duples, so neither the schedule nor the order
    # of the duples can change it.
    reordered = 0
    rng = seeded(2041 + len(start_kind))
    for _ in range(60):
        n = rng.randint(2, 12)
        start = random_start(rng, n, start_kind)
        duples = random_chain(rng, n, rng.randint(2 * n, 5 * n))
        reordered += sorted(duples, key=crossing._growth) != duples
        scheduled = cross_positives(start, duples)
        assert valid(scheduled)
        in_order = start
        for r in duples:
            in_order = reduce(full_crossing(in_order, r))
        assert scheduled == in_order == reduce(cross_positives(start, duples, "never"))
        for _ in range(3):
            assert cross_positives(start, rng.sample(duples, len(duples))) == scheduled
    assert reordered >= 55


def test_sorted_chain_splits_each_later_duple_once(monkeypatch):
    # Each run is sorted by the growth key before anything in it is crossed:
    # the reference step crosses the key-first duple of the first run, and
    # every later duple is split once, with no re-pricing.
    splits = 0
    split = crossing._split

    def counting_split(index, left, right):
        nonlocal splits
        splits += 1
        return split(index, left, right)

    referenced = []
    full = crossing.full_crossing

    def recording_full(model, r):
        referenced.append(r)
        return full(model, r)

    monkeypatch.setattr(crossing, "_split", counting_split)
    monkeypatch.setattr(crossing, "full_crossing", recording_full)
    rng = seeded(2047)
    for _ in range(60):
        n = rng.randint(2, 12)
        start = random_start(rng, n, rng.choice(START_KINDS))
        duples = random_chain(rng, n, rng.randint(2 * n, 5 * n))
        cuts = sorted(rng.sample(range(1, len(duples)), rng.randint(0, 3)))
        runs = [duples[i:j] for i, j in zip([0, *cuts], [*cuts, len(duples)])]
        splits = 0
        referenced.clear()
        models = list(cross_runs(start, runs))
        assert referenced == [sorted(runs[0], key=crossing._growth)[0]]
        assert splits == len(duples) - 1
        assert models[-1] == cross_positives(start, duples)


@pytest.mark.parametrize("policy", ["after_each", "never", "runs"])
def test_chain_leaving_the_signature_fails_before_any_crossing(policy, monkeypatch):
    seen = []
    # an after_each chain starts with full_crossing and every never step is
    # _cross, so a crossing would fail on None
    monkeypatch.setattr(crossing, "full_crossing", None)
    monkeypatch.setattr(crossing, "_cross", None)
    sig = sig_of_size(3)
    # the last duple names a fourth constant
    duples = [Duple(Term(1 << i), Term(1 << (i + 1))) for i in range(3)]
    with pytest.raises(SignatureMismatch):
        if policy == "runs":
            seen.extend(cross_runs(freest_model(sig), [(r,) for r in duples]))
        else:
            cross_positives(freest_model(sig), duples, policy)
    assert seen == []


def test_fused_running_example():
    sig = Signature.of("a b c d e")
    m = reduce(new_model(sig, map(sig.atom, ("a", "a b", "c d e", "b e", "c", "d"))))
    r = Duple(sig.term("b"), sig.term("a d"))
    assert [a.label(sig) for a in fused_crossing(m, r).atoms] == [
        "a", "a b", "a b e", "b d e", "c", "c d e", "d",
    ]


def test_full_crossing_keeps_the_callers_atoms():
    rng = seeded(2028)
    for _ in range(300):
        n = rng.randint(2, 9)
        m = new_model(sig_of_size(n), map(Atom, covered_masks(rng, n, rng.randint(1, 3 * n))))
        r = random_duple(rng, n)
        out = full_crossing(m, r)
        assert valid(out)
        by_mask = {atom.mask: atom for atom in m.atoms}
        moved = {atom.mask for atom in discriminant(m, r.left, r.right)}
        kept = [atom for atom in out.atoms if atom.mask in by_mask.keys() - moved]
        assert len(kept) == len(m.atoms) - len(moved)
        assert all(atom is by_mask[atom.mask] for atom in kept)


def test_fused_signature_mismatch():
    m = freest_model(Signature.of("a b"))
    with pytest.raises(SignatureMismatch):
        fused_crossing(m, Duple(Term(0b100), Term(0b1)))


def test_reduce_matches_pairwise_definition_on_random_unreduced_models():
    rng = seeded(2026)
    for _ in range(1000):
        n = rng.randint(1, 10)
        sig = sig_of_size(n)
        masks = sorted(covered_masks(rng, n, rng.randint(1, 4 * n)))
        m = new_model(sig, map(Atom, masks))
        assert reduce(m) == reference_reduce(m)
        # Models built directly may repeat an atom; a copy is no witness.
        doubled = Model(sig, m.atoms + m.atoms[: rng.randint(0, len(m.atoms))])
        assert reduce(doubled) == reference_reduce(doubled)


def reference_run(script, reduce_policy="after_each"):
    """The plain loop in script order: full crossing on every assert, then
    reduce under ``after_each``."""
    lines = []
    declared = script.atoms()
    model = new_model(
        script.sig, declared or (Atom(1 << i) for i in range(len(script.sig)))
    )
    for statement in script.statements:
        if isinstance(statement, Assertion):
            model = full_crossing(model, statement.duple)
            if reduce_policy == "after_each":
                model = reduce(model)
        elif isinstance(statement, ShowDirective):
            lines += [f"atom {atom.label(script.sig)}" for atom in model.atoms]
    return model, lines


def random_script(rng, n, asserts, declared):
    names = [f"c{i}" for i in range(n)]

    def text(mask):
        return " ".join(names[i] for i in range(n) if mask >> i & 1)

    lines = ["constants " + " ".join(names)]
    if declared:
        # Unions of declared atoms make the start unreduced.
        base = sorted(covered_masks(rng, n, n))
        unions = {rng.choice(base) | rng.choice(base) for _ in range(max(1, n // 3))}
        lines += [f"atom {text(mask)}" for mask in sorted(set(base) | unions)]
    lines.append("show atoms")
    for _ in range(asserts):
        r = random_duple(rng, n)
        lines.append(f"assert {text(r.left.mask)} <= {text(r.right.mask)}")
        if rng.random() < 0.2:
            lines.append("show atoms")
    return parse_script("\n".join(lines) + "\n")


@pytest.mark.parametrize("declared", [False, True])
def test_run_script_matches_step_by_step_reference(declared):
    rng = seeded(2027 + declared)
    unreduced_starts = 0
    for i in range(150):
        n = rng.randint(2, 12)
        asserts = 0 if i < 10 else rng.randint(1, 3 * n)
        script = random_script(rng, n, asserts, declared)
        start = new_model(script.sig, script.atoms()) if declared else None
        if start is not None and reduce(start) != start:
            unreduced_starts += 1
        for policy in ("after_each", "never"):
            out = io.StringIO()
            model, _ = run_script(script, policy, emit=out.write)
            assert (model, out.getvalue().splitlines()) == reference_run(script, policy)
    assert unreduced_starts >= (100 if declared else 0)


def test_unreduced_start_is_kept_until_the_first_assert():
    script = parse_script(
        "constants a b c\natom a\natom b\natom a b\natom c\nshow atoms\n"
    )
    out = io.StringIO()
    model, _ = run_script(script, emit=out.write)
    lines = out.getvalue().splitlines()
    assert lines == ["atom a", "atom a b", "atom b", "atom c"]
    assert [a.label(script.sig) for a in model.atoms] == ["a", "a b", "b", "c"]
    assert (model, lines) == reference_run(script)


def test_freest_model_matches_step_by_step_reference_at_n24():
    rng = seeded(2)
    n = 24
    sig = sig_of_size(n)
    duples = [random_duple(rng, n) for _ in range(120)]
    model = new_model(sig, (Atom(1 << i) for i in range(n)))
    for r in duples:
        crossed = full_crossing(model, r)
        assert valid(crossed)
        model = reduce(crossed)
    assert freest_model(sig, duples) == model
