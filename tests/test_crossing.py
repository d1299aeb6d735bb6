"""The crossing engine: golden steps, the laws of crossing, and seeded
differential tests of the chain against its references.

- the chain's scheduled step against ``reduce(full_crossing(m, r))`` on
  reduced models, and on the duples with one atom below the right term,
  which add no atom;
- the unions it skips for a non-minimal trace against ``is_redundant`` on the
  whole union grid;
- one-run and many-run ``cross_runs`` and ``freest_model`` under
  ``after_each`` against a step-by-step loop of ``full_crossing`` and
  ``reduce``, one-duple runs included;
- the scheduled chain against the script order, against ``reduce`` of a
  ``never`` chain, and against itself on permutations of its duples.
"""

import time

import pytest

from atomlat import crossing
from atomlat.core import Atom, Duple, Signature, Term
from atomlat.crossing import (
    REDUCE_POLICIES,
    cross_runs,
    freest_model,
    full_crossing,
)
from atomlat.errors import SignatureMismatch
from atomlat.model import (
    AtomColumns,
    Model,
    enumerate_theory,
    holds,
    is_freer,
    is_redundant,
    new_model,
    reduce,
)

from conftest import (
    atom_names,
    covered_masks,
    discriminant,
    duple,
    lower_atomic_segment,
    mk,
    random_duple,
    random_model,
    random_script,
    random_term,
    seeded,
    sig_of_size,
    valid,
)

ABCDE = Signature.of("a b c d e")
CROSS_SOURCE = mk("a b c d e", "a", "a b", "c d e", "b e", "c", "d")


def test_full_crossing_golden():
    crossed = full_crossing(CROSS_SOURCE, duple(ABCDE, "b", "a d"))
    assert atom_names(crossed) == {
        ("a",),
        ("a", "b"),
        ("c", "d", "e"),
        ("c",),
        ("d",),
        ("a", "b", "e"),
        ("b", "c", "d", "e"),
        ("b", "d", "e"),
    }
    assert atom_names(reduce(crossed)) == atom_names(crossed) - {("b", "c", "d", "e")}


def test_full_crossing_satisfied_duple_is_identity():
    r = duple(ABCDE, "a", "a b")
    assert full_crossing(CROSS_SOURCE, r) is CROSS_SOURCE


def test_full_crossing_join_step():
    m = mk("a b c d e", "c", "a b c", "c d e")
    crossed = full_crossing(m, duple(ABCDE, "c", "d"))
    assert atom_names(reduce(crossed)) == {
        ("c", "d", "e"),
        ("a", "b", "c", "d", "e"),
    }


def test_full_crossing_signature_mismatch():
    wide = Signature.of("a b c d e f")
    with pytest.raises(SignatureMismatch):
        full_crossing(CROSS_SOURCE, Duple(wide.term("f"), wide.term("a")))


def test_freest_model_no_relations():
    sig = Signature.of("a b c")
    m = freest_model(sig, [])
    assert atom_names(m) == {("a",), ("b",), ("c",)}


def test_freest_model_single_relation():
    sig = Signature.of("a b")
    m = freest_model(sig, [duple(sig, "a", "b")])
    assert atom_names(m) == {("b",), ("a", "b")}


def test_freest_model_total_collapse():
    sig = Signature.of("a b")
    m = freest_model(sig, [duple(sig, "a", "b"), duple(sig, "b", "a")])
    assert atom_names(m) == {("a", "b")}


@pytest.mark.parametrize("policy", REDUCE_POLICIES)
def test_reduce_policy_keeps_theory(policy):
    rng = seeded(21)
    for _ in range(25):
        sig = Signature.of("a b c d")
        duples = [random_duple(rng, 4) for _ in range(rng.randint(0, 5))]
        base = freest_model(sig, duples)
        other = freest_model(sig, duples, reduce_policy=policy)
        assert enumerate_theory(other) == enumerate_theory(base)


def test_policies_agree_after_final_reduce():
    rng = seeded(22)
    sig = Signature.of("a b c d e")
    duples = [random_duple(rng, 5) for _ in range(6)]
    eager = freest_model(sig, duples, reduce_policy="after_each")
    raw = freest_model(sig, duples, reduce_policy="never")
    assert set(eager.atoms) == set(reduce(raw).atoms)


def test_crossing_strictly_reduces_freedom():
    rng = seeded(23)
    tried = 0
    for _ in range(60):
        m = random_model(rng, "a b c d")
        r = random_duple(rng, 4)
        if not discriminant(m, r.left, r.right):
            continue
        tried += 1
        crossed = full_crossing(m, r)
        assert is_freer(m, crossed)
        assert not is_freer(crossed, m)
        assert enumerate_theory(crossed) != enumerate_theory(m)
    assert tried > 10


def test_crossing_preserves_freedom_order():
    rng = seeded(24)
    checked = 0
    for _ in range(80):
        a = random_model(rng, "a b c")
        b = random_model(rng, "a b c")
        if not is_freer(a, b):
            continue
        checked += 1
        r = random_duple(rng, 3)
        assert is_freer(full_crossing(a, r), full_crossing(b, r))
    assert checked > 10


def test_crossing_on_padded_atomization_same_theory():
    rng = seeded(25)
    for _ in range(40):
        m = random_model(rng, "a b c d")
        padded = new_model(m.sig, list(m.atoms) + [
            Atom(m.masks[0] | m.masks[-1]),
            Atom(m.masks[len(m.masks) // 2] | m.masks[0]),
        ])
        r = random_duple(rng, 4)
        assert enumerate_theory(full_crossing(m, r)) == enumerate_theory(
            full_crossing(padded, r)
        )


def test_freest_model_does_not_entail_the_converse():
    sig = Signature.of("a b")
    assert not holds(freest_model(sig, [duple(sig, "a", "b")]), duple(sig, "b", "a"))


def test_freest_model_entails_transitive_consequences():
    sig = Signature.of("a b c")
    m = freest_model(sig, [duple(sig, "a", "b"), duple(sig, "b", "c")])
    assert holds(m, duple(sig, "a", "c"))


def test_freest_model_entails_containment():
    sig = Signature.of("a b")
    assert holds(freest_model(sig, []), duple(sig, "a", "a b"))


def check_build_at_scale(n, k, seed, budget):
    rng = seeded(seed)
    sig = Signature.of(" ".join(f"c{i}" for i in range(n)))
    duples = [random_duple(rng, n) for _ in range(k)]
    started = time.perf_counter()
    m = freest_model(sig, duples)
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"took {elapsed:.3f}s"
    assert reduce(m) is m
    assert all(holds(m, r) for r in duples)
    assert freest_model(sig, rng.sample(duples, len(duples))) == m


@pytest.mark.parametrize("seed", [1001, 1003])
def test_scheduled_build_at_scale(seed):
    # n=40, k=200 as in acceptance criterion 10; in script order seed 1003
    # peaks at thousands of atoms and takes several seconds.
    check_build_at_scale(40, 200, seed, 2.0)


def test_scheduled_build_at_scale_n60():
    # Crossing the duples with the most atoms below their right term last
    # keeps this chain at its final 998 atoms; keying by the grid size
    # |moved| x |below| instead peaks above 10,000 atoms and takes about 40 s.
    check_build_at_scale(60, 180, 1, 5.0)


def random_reduced_model(rng, n):
    sig = sig_of_size(n)
    return reduce(new_model(sig, map(Atom, covered_masks(rng, n, rng.randint(1, 3 * n)))))


def scheduled_step(m, r):
    """The chain's scheduled step of ``r`` on a reduced ``m``.

    The first run's duple holds in every model, so the chain's first step
    hands ``m`` itself to the live index, and the second run crosses ``r``
    there; ``m`` comes back when ``r`` holds.
    """
    *_, last = cross_runs(m, [[Duple(r.right, r.right)], [r]])
    return last


def test_scheduled_step_matches_reference_on_random_reduced_models():
    rng = seeded(2024)
    already_held = 0
    for _ in range(3000):
        n = rng.randint(2, 12)
        m = random_reduced_model(rng, n)
        if rng.random() < 0.3:
            left = random_term(rng, n)
            r = Duple(left, Term(left.mask | random_term(rng, n).mask))
        else:
            r = random_duple(rng, n)
        scheduled, full = scheduled_step(m, r), full_crossing(m, r)
        assert valid(scheduled) and valid(full)
        assert scheduled == reduce(full)
        if holds(m, r):
            already_held += 1
            assert scheduled is m
    assert already_held >= 900


def test_scheduled_step_matches_reference_along_freest_builds():
    rng = seeded(2025)
    for _ in range(200):
        n = rng.randint(2, 12)
        sig = sig_of_size(n)
        m = new_model(sig, (Atom(1 << i) for i in range(n)))
        for _ in range(rng.randint(1, 3 * n)):
            r = random_duple(rng, n)
            full = full_crossing(m, r)
            expected = reduce(full)
            scheduled = scheduled_step(m, r)
            assert valid(full) and valid(scheduled)
            assert scheduled == expected
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
        scheduled = scheduled_step(m, r)
        assert len(scheduled.atoms) <= len(m.atoms)
        assert scheduled == reduce(full_crossing(m, r))
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


def test_scheduled_step_running_example():
    sig = Signature.of("a b c d e")
    m = reduce(new_model(sig, map(sig.atom, ("a", "a b", "c d e", "b e", "c", "d"))))
    r = Duple(sig.term("b"), sig.term("a d"))
    assert [a.label(sig) for a in scheduled_step(m, r).atoms] == [
        "a", "a b", "a b e", "b d e", "c", "c d e", "d",
    ]


def test_scheduled_step_skips_the_union_of_a_non_minimal_trace():
    # a b c d is the union of a b with a c d, whose trace c d strictly
    # contains the trace c of b c, so the scheduled step skips it
    sig = Signature.of("a b c d")
    m = Model(sig, tuple(map(sig.mask_of_names, ["a b", "a c d", "b c"])))
    r = Duple(sig.term("a"), sig.term("c"))
    assert [atom.label(sig) for atom in full_crossing(m, r).atoms] == [
        "a b c", "a b c d", "a c d", "b c",
    ]
    assert [atom.label(sig) for atom in scheduled_step(m, r).atoms] == [
        "a b c", "a c d", "b c",
    ]


def test_scheduled_step_signature_mismatch():
    m = freest_model(Signature.of("a b"))
    with pytest.raises(SignatureMismatch):
        scheduled_step(m, Duple(Term(0b100), Term(0b1)))


def test_full_crossing_keeps_the_masks_it_does_not_move():
    rng = seeded(2028)
    for _ in range(300):
        n = rng.randint(2, 9)
        m = new_model(sig_of_size(n), map(Atom, covered_masks(rng, n, rng.randint(1, 3 * n))))
        r = random_duple(rng, n)
        out = full_crossing(m, r)
        assert valid(out)
        moved = {atom.mask for atom in discriminant(m, r.left, r.right)}
        unmoved = [mask for mask in m.masks if mask not in moved]
        assert [mask for mask in out.masks if mask in set(m.masks) - moved] == unmoved


def random_chain(rng, n, steps):
    """Random duples mixed with ones that hold at every step: a left term
    inside the right one, or a repeat of an earlier duple."""
    duples = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.15:
            left = random_term(rng, n)
            duples.append(Duple(left, Term(left.mask | random_term(rng, n).mask)))
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
        assert seen[-1] == next(cross_runs(start, [duples]))
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
        scheduled = next(cross_runs(start, [duples]))
        assert valid(scheduled)
        in_order = start
        for r in duples:
            in_order = reduce(full_crossing(in_order, r))
        assert scheduled == in_order == reduce(next(cross_runs(start, [duples], "never")))
        for _ in range(3):
            assert next(cross_runs(start, [rng.sample(duples, len(duples))])) == scheduled
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
        assert models[-1] == next(cross_runs(start, [duples]))


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
            next(cross_runs(freest_model(sig), [duples], policy))
    assert seen == []


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

